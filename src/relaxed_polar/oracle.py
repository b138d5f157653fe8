"""Independent numeric ground truth for the closed-form minimizers.

Multi-start search over the rotation group from Haar-uniform restarts, by
one stacked loop, ``_loop``, in three modes: ``_search``, behind
``global_minimize``, ``riemannian_descent`` and ``critical_scan``, runs
Riemannian gradient descent while a start is far from any critical point,
then saddle-free Newton steps (Dauphin et al., arXiv:1406.2572) on the
energy's Hessian, which converge quadratically near a minimum and step
down off a saddle; root mode (G = 0) finishes the winner.
Descent does the global part, in at most 32 steps by default: a start
still above the handover after them crawls a valley Newton crosses. All
step by the Cayley retraction R <- R C(A), C(A) = (1 - A/2)^-1 (1 + A/2)
for skew A: one real linear solve per step, where the exact exponential
needs an eigendecomposition for n >= 4. C agrees with expm to second order
(Absil, Mahony and Sepulchre, *Optimization Algorithms on Matrix
Manifolds*, 2008, sec. 4.1), so the Newton steps keep their exact
Jacobian and Hessian. A Cayley step of large norm, as descent takes far
from a critical point, leaves R off SO(n) by rounding, so ``_search``
projects each descent endpoint onto SO(n) once, by SVD (U V^T), before
its Newton phase: the oracle projects there and nowhere else.
``critical_scan`` perturbs its corner starts by a small Cayley step too,
so the oracle moves on the rotation group only by C(A), in every
dimension. The rotation group is compact, so enough restarts make this a
credible global oracle at the small dimensions the closed forms are
verified at. Every restart draws its own random stream
from (seed, restart index), and the restarts of one (n, seed, samples) are
built once, as one stack, and shared. The loop runs its starts as one
stack, each with its own step and stopping rule, so results do not depend
on how the stack is split and are bit-identical for a fixed seed. A point
is evaluated once: Y = R^T F and the weighted stretch N(X) = mu sym X -
muc skew X, X = Y - 1, serve the energy <X, N(X)^T>, the gradient and the
Hessian.

Stationarity has one measure, the gradient norm ||G|| every search
returns: for mu > muc it is mu lam ||skew((Rhat D / lam - 1)^2)||, the
paper's symmetric-square defect scaled, so it certifies critical points.
It has one scale, c = 2 max(mu, muc) ||F|| (||F|| + sqrt(n)) >= ||G||: by
the reduction W_{mu,muc}(R; F) = (mu - muc) lam^2 W_{1,0}(R; F / lam) + C(F)
the gradient, the Hessian and their rounding all grow like max(mu, muc)
||F||^2, so every tolerance on ||G|| is a fixed fraction of c. Each entry
point computes c once by ``_check_scale``, which raises ``ValueError``
before any step where c^2 overflows (||F|| above about 5e76 at unit
weights), not run on inf gradients.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .energy import CosseratWeights, DeformationGradient, absolute_rotation, energy, solve
from .errors import DimensionMismatch

# first step length of every descent; each start then adapts its own
_STEP_INIT = 0.1
_MIN_STEP = 1e-18
# generous cap on t and on the step norm t ||G||: backtracking rejects
# overshoots anyway, and nearly flat modes (repeated singular values) need
# steps far above unity to converge. A Cayley step turns a plane of angle
# theta by 2 atan(theta / 2), so at the cap a step saturates just short of pi
# rather than wrapping around
_MAX_STEP = 1e6
# Fractions of the module docstring's scale c. Descent hands a start to
# saddle-free Newton at ||G|| <= _HANDOVER c: first order does the global part
# of the search, far from any critical point, and Newton the local
# convergence it is slow at
_HANDOVER = 1e-2
# the rounding floor: searches end at max(tol_grad, _FLOOR c), Newton aims at it
_FLOOR = 1e-13
# the least |Hessian eigenvalue| a saddle-free step divides by
_EIG_FLOOR = 5e-9
# critical_scan keeps an endpoint at ||G|| <= _KEEP c
_KEEP = 1e-11
# Newton converges in a few steps or stalls; the cap on accepted steps ends the rest
_ACCEPT_CAP = 60
# root-mode Newton halves a rejected step's factor down to this, then stalls
_LEAST_FACTOR = 1e-6
# cap on the norm of a Newton step's coordinates, its angle in one plane: a
# Cayley step of norm 100 already turns that plane by 2 atan(50) ~ 0.987 pi,
# and a pseudo-inverse step far above it leaves R off SO(n) by rounding
_NEWTON_STEP = 100.0
# per mode of _loop, (first, growth, top, least) of its step factor: factor <-
# min(factor * (growth if accepted else 1/2), top), and a start stalls below
# least; an infinite growth resets a Newton factor to 1
_FACTOR_RULE = {
    "descent": (_STEP_INIT, 2.0, _MAX_STEP, _MIN_STEP),
    "saddle_free": (1.0, math.inf, 1.0, 1.0),
    "root": (1.0, math.inf, 1.0, _LEAST_FACTOR),
}


@dataclass(frozen=True)
class OracleConfig:
    """Multi-start search configuration. The seed is always explicit.

    ``max_iters`` caps a start's accepted steps in ``_loop``'s descent
    mode, and ``tol_grad`` is the gradient norm at which its search ends.
    A start still above the handover after the default 32 steps crawls a
    valley that the saddle-free mode crosses in a few.
    """

    seed: int
    samples: int = 2000
    max_iters: int = 32
    tol_grad: float = 1e-10

    def __post_init__(self):
        try:  # any integer type, numpy's too; 2.0 and 2.5 are refused
            seed, samples, max_iters = map(operator.index, (self.seed, self.samples, self.max_iters))
        except TypeError:
            raise ValueError("seed, samples and max_iters must be integers") from None
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if samples < 1 or max_iters < 1:
            raise ValueError("samples and max_iters must be positive")
        # inf would end every start where it begins, counted as converged
        if not isinstance(self.tol_grad, numbers.Real) or not 0.0 < self.tol_grad < math.inf:
            raise ValueError("tol_grad must be a positive finite real number")


@dataclass(frozen=True)
class OracleResult:
    """What :func:`global_minimize` found.

    ``best_rotation`` is the lowest-energy search endpoint after ``_loop``
    in root mode, ``best_energy`` its energy by :func:`~relaxed_polar.energy.energy`
    and ``grad_norm_at_best`` its gradient norm ||G||, which that takes
    towards the rounding floor 1e-13 c, c the module docstring's scale.
    The other three count how the starts' searches ended, before root mode:
    ``restarts_converged`` at ||G|| <= max(tol_grad, 1e-13 c),
    ``restarts_stalled`` at a saddle-free step that did not lower the
    energy and ``restarts_capped`` at that mode's step cap; they add
    up to the number of starts. A start stalls where a full step
    overshoots, far from any critical point, or where the energy no longer
    resolves a step's decrease, at ||G|| of about 1e-11 c to 5e-9 c; so a
    last-bit change of the input can still move a start or two of 16
    between converged and stalled.
    """

    best_rotation: np.ndarray
    best_energy: float
    grad_norm_at_best: float
    restarts_converged: int
    restarts_stalled: int
    restarts_capped: int


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-uniform rotations from a stack of Gaussian matrices (S, n, n):
    QR with sign-corrected factors, then a last-column negation where the
    determinant is -1."""
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    q = q * d[:, None, :]
    q[np.linalg.det(q) < 0.0, :, -1] *= -1.0
    return q


def haar_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation from one (n, n) Gaussian draw of ``rng``, by
    the rule that builds the oracle's restarts."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _haar(rng.standard_normal((1, n, n)))[0]


@functools.lru_cache(maxsize=16)
def _haar_starts(n: int, seed: int, samples: int) -> np.ndarray:
    """Read-only stack (samples, n, n) of Haar restarts, start i as
    ``haar_sample`` draws it from ``default_rng((seed, i))``. The bound caps
    a caller with a new seed per call (``scatter-mc``) at 6.4 MB for 2,000
    starts in 5D."""
    g = np.array([np.random.default_rng((seed, i)).standard_normal((n, n)) for i in range(samples)])
    q = _haar(g)
    q.flags.writeable = False
    return q


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``: the pairs (ii, jj) of skew coordinates."""
    ii, jj = np.triu_indices(n, 1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _check_scale(W: CosseratWeights, F: DeformationGradient) -> float:
    """The module docstring's scale c >= ||G||; ``ValueError`` where c^2 overflows."""
    with np.errstate(over="ignore"):  # an overflowing ||F|| reads inf and is refused
        fn = float(np.linalg.norm(F.matrix))
    w = max(W.mu, W.muc)
    c = 2.0 * w * fn * (fn + F.dim**0.5)
    if not np.isfinite(c * c):  # a product of Python floats: inf, no warning
        raise ValueError(f"input scale ||F|| = {fn:g}, max(mu, muc) = {w:g} overflows the gradient norm")
    return c


def _stretch(
    mu: float, muc: float, r: np.ndarray, f: np.ndarray, eye: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Y = R^T F and N(X), X = Y - 1, at R (or a stack): the kernels below take these."""
    y = r.swapaxes(-1, -2) @ f
    return y, _weigh(mu, muc, y - eye)


def _energy(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    # mu||sym X||^2 + muc||skew X||^2 = <X, N(X)^T>, for a stack of X and its N(X)
    return np.einsum("sij,sji->s", x, n)


def _weigh(mu: float, muc: float, x: np.ndarray) -> np.ndarray:
    # N(X) = mu sym(X) - muc skew(X) = ((mu-muc) X + (mu+muc) X^T) / 2, linear in X
    return 0.5 * (mu - muc) * x + 0.5 * (mu + muc) * x.swapaxes(-1, -2)


def _gradient(y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Riemannian gradient G at R (or a stack), in the left trivialization.

    Along R(s) = R expm(s A) with skew A the energy changes at rate <G, A>:
    G = 2 skew( Y N(X) ),  Y = R^T F,  X = Y - 1,  N(X) = mu sym(X) - muc skew(X),
    the N(X) that ``_stretch`` forms once per point for the energy too.
    """
    b = y @ n
    return b - b.swapaxes(-1, -2)  # = 2 skew(B)


def _jacobian(mu: float, muc: float, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Exact Jacobian (S, m, m) of the gradient field at a stack R (S, n, n),
    given by its ``_stretch`` (Y, N(X)).

    Skew G is a vector by its lower triangle G[jj, ii]; basis element k has
    +1 at (jj[k], ii[k]) and -1 at (ii[k], jj[k]). Along R expm(s B), Y =
    R^T F moves by dY = -B Y, so column k is 2 skew(dY N(X) + Y N(dY)).
    """
    ii, jj = _pairs(y.shape[-1])
    k = np.arange(len(ii))
    dy = np.zeros((len(y), len(k)) + y.shape[1:])
    dy[:, k, jj], dy[:, k, ii] = -y[:, ii], y[:, jj]  # rows of -B Y
    d = dy @ n[:, None] + y[:, None] @ _weigh(mu, muc, dy)
    return (d - d.swapaxes(-1, -2))[..., jj, ii].swapaxes(-1, -2)


def _hessian(mu: float, muc: float, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Symmetric part (S, m, m) of ``_jacobian`` at a stack R (S, n, n).

    Along R(s) = R expm(s A) the energy has second derivative <dG[A], A> =
    2 a^T J a, a the lower triangle of A, so this is half the energy's
    Hessian in that basis; at a critical point J itself is symmetric.
    """
    jac = _jacobian(mu, muc, y, n)
    return 0.5 * (jac + jac.swapaxes(-1, -2))


def _norm(g: np.ndarray) -> np.ndarray:
    return np.sqrt((g * g).sum(axis=(-2, -1)))


def _cayley(a: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Cayley transform (1 - A/2)^-1 (1 + A/2) of a stack of skew A (S, n, n).

    A rotation for every skew A, since 1 - A/2 is then invertible; each
    slice is solved on its own, so a slice's result does not depend on the
    stack. A is not checked: every caller builds it skew. The orthogonality
    error is a few ulps for ||A|| <= 10 and grows with ||A||, the condition
    number of 1 - A/2 being about ||A|| / 2, most in odd n, where a skew A
    is singular.
    """
    half = 0.5 * a
    return np.linalg.solve(eye - half, eye + half)


def _loop(
    W: CosseratWeights,
    F: DeformationGradient,
    starts: np.ndarray,
    tol: float,
    c: float,
    mode: str,
    cap: int,
    energy_trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's one loop: steps R <- R C(A), C the Cayley retraction, of
    a stack of starts (S, n, n), each on its own, its factor by ``_FACTOR_RULE``.

    The mode sets the step and what a trial must lower. "descent": A =
    -min(t, ``_MAX_STEP`` / ||G||) G, t the factor; lower the energy.
    "saddle_free": dx = -V diag(1 / max(|lam|, ``_EIG_FLOOR`` c)) V^T g,
    (lam, V) the eigenpairs of ``_hessian``, g the lower triangle of G, a way
    down off a saddle too; lower the energy. "root": dx solves J dx = -G by
    least squares on ``_jacobian``, cut to norm ``_NEWTON_STEP``, times the
    factor; lower ||G||, so it converges to any critical point near it. C
    has expm's velocity at 0, so J and H stay exact. A start ends at ||G||
    <= tol, by stall or after cap accepted steps, whatever the rest of the
    stack; ``energy_trace`` needs one start, and descent records its first
    energy too. Returns the rotations, energies, gradient norms and
    endings: 0 at tol, 1 by stall, 2 at the cap.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    ii, jj = _pairs(F.dim)
    first, grow, top, least = _FACTOR_RULE[mode]
    r = np.array(starts, dtype=float)
    y, n = _stretch(mu, muc, r, f, eye)
    e, g = _energy(y - eye, n), _gradient(y, n)
    gn = _norm(g)
    pos, steps, factor = np.arange(len(r)), np.zeros(len(r), dtype=int), np.full(len(r), first)
    out_r, out_e, out_gn, out_factor = r.copy(), e.copy(), gn.copy(), factor.copy()
    if energy_trace is not None and mode == "descent":
        energy_trace.append(float(e[0]))
    stop = gn <= tol
    while True:
        if stop.any():
            # write out the starts that ended and drop them from the stack
            out, keep = pos[stop], np.flatnonzero(~stop)
            out_r[out], out_e[out], out_gn[out], out_factor[out] = r[stop], e[stop], gn[stop], factor[stop]
            pos, r, y, n, e, g, gn, steps, factor = (
                a.take(keep, 0) for a in (pos, r, y, n, e, g, gn, steps, factor)
            )
        if not len(pos):
            return out_r, out_e, out_gn, np.where(out_gn <= tol, 0, np.where(out_factor < least, 1, 2))
        if mode == "descent":
            step = -np.minimum(factor, _MAX_STEP / gn)[:, None, None] * g
        else:
            if mode == "saddle_free":
                lam, v = np.linalg.eigh(_hessian(mu, muc, y, n))
                # products and sums, not matmul, whose rounding can depend on the stack
                vg = np.einsum("sij,si->sj", v, g[:, jj, ii]) / np.maximum(np.abs(lam), _EIG_FLOOR * c)
                dx = -np.einsum("sij,sj->si", v, vg)
            else:
                # a rejected trial leaves the state as it was; the factor, a power of two, scales exactly
                dx = (np.linalg.pinv(_jacobian(mu, muc, y, n)) @ -g[:, jj, ii, None])[..., 0]
                cut = _NEWTON_STEP / np.maximum(np.linalg.norm(dx, axis=-1), _NEWTON_STEP)
                dx *= (factor * cut)[:, None]
            step = np.zeros_like(r)
            step[:, jj, ii], step[:, ii, jj] = dx, -dx
        r_try = r @ _cayley(step, eye)
        y_try, n_try = _stretch(mu, muc, r_try, f, eye)
        e_try = _energy(y_try - eye, n_try)
        ok = _norm(_gradient(y_try, n_try)) < gn if mode == "root" else e_try < e
        factor = np.minimum(factor * np.where(ok, grow, 0.5), top)
        moved = np.count_nonzero(ok)
        if not moved:
            stop = factor < least
            continue
        if moved < len(ok):
            pick = ok[:, None, None]
            r_try, y_try, n_try = (np.where(pick, a, b) for a, b in ((r_try, r), (y_try, y), (n_try, n)))
            e_try = np.where(ok, e_try, e)
        r, y, n, e = r_try, y_try, n_try, e_try
        # a rejected start keeps its rotation, so its gradient is unchanged
        g = _gradient(y, n)
        gn = _norm(g)
        steps += ok
        if energy_trace is not None:
            energy_trace.append(float(e[0]))
        stop = (gn <= tol) | (factor < least) | (steps >= cap)


def _search(
    W: CosseratWeights,
    F: DeformationGradient,
    starts: np.ndarray,
    cfg: OracleConfig,
    c: float,
    energy_trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's one search: descent, then saddle-free Newton, for a
    stack of starts (S, n, n).

    The scale c from ``_check_scale`` sets every threshold: ``_loop`` in
    descent mode runs each start until ||G|| <= ``_HANDOVER`` c, or until it
    stalls or reaches max_iters; one SVD, U V^T, projects the endpoints onto
    SO(n); the saddle-free mode, its eigenvalue floor ``_EIG_FLOOR`` c,
    then takes every start on to ||G|| <= max(tol_grad, ``_FLOOR`` c), the
    rounding floor where tol_grad lies below it, so a start converges at
    any input scale. ``energy_trace`` needs one start and records the
    energy after every accepted step of both phases, which strictly
    decreases; the projection adds no entry. Returns what ``_loop``
    does, converged meaning at that tolerance. The energy returned is that
    of the projected point, so where Newton accepts no step it can differ
    from the trace's last entry by the projection's rounding-level move.
    """
    tol = max(cfg.tol_grad, _FLOOR * c)
    r = _loop(W, F, starts, max(tol, _HANDOVER * c), c, "descent", cfg.max_iters, energy_trace)[0]
    u, _, vt = np.linalg.svd(r)
    return _loop(W, F, u @ vt, tol, c, "saddle_free", _ACCEPT_CAP, energy_trace)


def riemannian_descent(
    W: CosseratWeights, F: DeformationGradient, R0, cfg: OracleConfig, energy_trace: list | None = None
) -> tuple[np.ndarray, float, float]:
    """Descent on the rotation group from R0, finished by saddle-free Newton.

    The one-start case of ``_search``; pass ``energy_trace`` to record the
    energy after each accepted step of both phases. Returns the rotation,
    its energy and its gradient norm; as ``_search`` states, that energy
    is the projected point's and can differ slightly from the trace's last
    entry. A start with ||R0^T R0 - 1|| > 1e-8 or det R0 <= 0, or not
    finite, raises ``ValueError``.
    """
    r = np.asarray(R0, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"start shape {r.shape} does not match dim {F.dim}")
    with np.errstate(all="ignore"):  # a start too large or not finite reads inf or NaN
        off, det = float(np.linalg.norm(r.T @ r - np.eye(F.dim))), float(np.linalg.det(r))
    if not (off <= 1e-8 and det > 0.0):
        raise ValueError(f"start is not a rotation: ||R0^T R0 - 1|| = {off:g}, det R0 = {det:g}")
    r, e, gn, _ = _search(W, F, r[None], cfg, _check_scale(W, F), energy_trace)
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
    same closed forms. All starts run one stacked search, each with its own
    step and stopping rule: first-order descent while far from a critical
    point, then saddle-free Newton, which converges in a few steps where
    descent crawls. So a start ends where it would alone and the result
    does not depend on how the stack is split or ordered. The Haar
    restarts are built once per (n, seed, samples) and reused. The lowest
    energy wins, ties broken by start index, and the same ``_loop`` in
    root mode finishes it towards the rounding floor ||G|| <= ``_FLOOR`` c.
    """
    c = _check_scale(W, F)
    starts = _haar_starts(F.dim, cfg.seed, cfg.samples)
    if warm_starts:
        warm = [F.polar.rotation]
        if not W.is_classical:  # a classical set is the polar factor alone
            warm.extend(solve(W, F).minimizers[:8])
        starts = np.concatenate((warm, starts))

    r, e, _, end = _search(W, F, starts, cfg, c)
    best = int(np.argmin(e))  # the first of equal energies: lowest start index
    r_best, _, gn_best, _ = _loop(W, F, r[best : best + 1], _FLOOR * c, c, "root", _ACCEPT_CAP)
    tally = np.bincount(end, minlength=3)
    return OracleResult(
        best_rotation=r_best[0],
        best_energy=energy(W, r_best[0], F),
        grad_norm_at_best=float(gn_best[0]),
        restarts_converged=int(tally[0]),
        restarts_stalled=int(tally[1]),
        restarts_capped=int(tally[2]),
    )


def critical_scan(
    W: CosseratWeights, F: DeformationGradient, cfg: OracleConfig
) -> list[tuple[np.ndarray, float]]:
    """Distinct critical points found numerically, certified stationary.

    Two searches run from every start point (Haar samples plus the
    principal-frame sign corners polar(F) Q diag(+-1) Q^T with det +1,
    exact and perturbed by the Cayley step C(0.025 (G - G^T)) of a
    Gaussian G): ``_search``, descent to the handover and then saddle-free
    Newton, which lands on minima and stays put when started exactly at a
    critical point, and ``_loop`` in root mode to the rounding floor
    ``_FLOOR`` c, c the module docstring's scale, which also converges to
    saddles; each runs all the starts as one stack, the Haar samples
    shared with ``global_minimize``. An endpoint is kept when the ||G|| its
    search returns is at most ``_KEEP`` c, so the test means the same at
    every input scale. Kept endpoints, each start's ``_search`` before its
    Newton, are clustered (same point = energies e within 1e-6 (1 + |e|)
    and Frobenius distance within 1e-4; the first stays) and sorted by
    energy.
    """
    c = _check_scale(W, F)
    n, eye = F.dim, np.eye(F.dim)
    signs = np.array([s for s in itertools.product((1.0, -1.0), repeat=n) if np.prod(s) > 0])
    corners = absolute_rotation(signs[:, None, :] * eye, F)
    g = np.random.default_rng((cfg.seed, 0xC0)).standard_normal(corners.shape)
    nudged = corners @ _cayley(0.025 * (g - g.swapaxes(-1, -2)), eye)
    starts = np.concatenate((corners, nudged, _haar_starts(n, cfg.seed, cfg.samples)))

    r_search, _, gn_search, _ = _search(W, F, starts, cfg, c)
    r_newt, _, gn_newt, _ = _loop(W, F, starts, _FLOOR * c, c, "root", _ACCEPT_CAP)
    r = np.stack((r_search, r_newt), axis=1).reshape(-1, n, n)
    gn = np.stack((gn_search, gn_newt), axis=1).ravel()

    found: list[tuple[np.ndarray, float]] = []
    for ri in r[gn <= _KEEP * c]:
        e = energy(W, ri, F)
        if not any(abs(e - ek) <= 1e-6 * (1.0 + abs(e)) and _norm(ri - rk) <= 1e-4 for rk, ek in found):
            found.append((ri, e))
    found.sort(key=lambda t: t[1])
    return found
