"""Independent numeric ground truth for the closed-form minimizers.

Multi-start search over the rotation group from Haar-uniform restarts, by
one search, ``_search``, behind ``global_minimize``, ``riemannian_descent``
and ``critical_scan``: Riemannian gradient descent while a start is far
from any critical point, then, from the handover on, saddle-free Newton
steps (Dauphin et al., arXiv:1406.2572) on the energy's Hessian, which
converge quadratically near a minimum and step down off a saddle; Newton
on the gradient field with its exact Jacobian finishes the winner. All
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
built once, as one stack, and shared. Each phase runs its starts as one
stack, each with its own step and stopping rule, so results do not depend
on how the stack is split and are bit-identical for a fixed seed.

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
# saddle-free Newton converges in a few steps or stalls; the cap ends the rest
_SFN_STEPS = 60


@dataclass(frozen=True)
class OracleConfig:
    """Multi-start search configuration. The seed is always explicit.

    ``max_iters`` caps a start's accepted descent steps, and ``tol_grad``
    is the gradient norm at which its search ends.
    """

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

    ``best_rotation`` is the lowest-energy search endpoint after Newton,
    ``best_energy`` its energy by :func:`~relaxed_polar.energy.energy` and
    ``grad_norm_at_best`` its gradient norm ||G||, which Newton takes
    towards the rounding floor 1e-13 c, c the module docstring's scale.
    The other three count how the starts' searches ended, before Newton:
    ``restarts_converged`` at ||G|| <= max(tol_grad, 1e-13 c),
    ``restarts_stalled`` at a saddle-free Newton step that did not lower
    the energy and ``restarts_capped`` at that phase's step cap; they add
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
    c = 2.0 * max(W.mu, W.muc) * fn * (fn + F.dim**0.5)
    if not np.isfinite(c * c):  # a product of Python floats: inf, no warning
        raise ValueError(f"input scale ||F|| = {fn:g} overflows the oracle's gradient norm")
    return c


def _stretch(r: np.ndarray, f: np.ndarray, eye: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = R^T F and X = Y - 1 at R (or a stack): the kernels below take these."""
    y = r.swapaxes(-1, -2) @ f
    return y, y - eye


def _energy(mu: float, muc: float, x: np.ndarray) -> np.ndarray:
    # mu||sym X||^2 + muc||skew X||^2 = ((mu+muc)||X||^2 + (mu-muc) tr X^2)/2
    nsq = (x * x).sum(axis=(-2, -1))
    q = (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))
    return 0.5 * ((mu + muc) * nsq + (mu - muc) * q)


def _weigh(mu: float, muc: float, x: np.ndarray) -> np.ndarray:
    # N(X) = mu sym(X) - muc skew(X) = ((mu-muc) X + (mu+muc) X^T) / 2, linear in X
    return 0.5 * ((mu - muc) * x + (mu + muc) * x.swapaxes(-1, -2))


def _gradient(mu: float, muc: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Riemannian gradient G at R (or a stack), in the left trivialization.

    Along R(s) = R expm(s A) with skew A the energy changes at rate <G, A>:
    G = 2 skew( Y N(X) ),  Y = R^T F,  X = Y - 1,  N(X) = mu sym(X) - muc skew(X).
    """
    b = y @ _weigh(mu, muc, x)
    return b - b.swapaxes(-1, -2)  # = 2 skew(B)


def _jacobian(mu: float, muc: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact Jacobian (S, m, m) of the gradient field at a stack R (S, n, n),
    given by its ``_stretch`` (Y, X).

    Skew G is a vector by its lower triangle G[jj, ii]; basis element k has
    +1 at (jj[k], ii[k]) and -1 at (ii[k], jj[k]). Along R expm(s B), Y =
    R^T F moves by dY = -B Y, so column k is 2 skew(dY N(X) + Y N(dY)).
    """
    ii, jj = _pairs(y.shape[-1])
    k = np.arange(len(ii))
    dy = np.zeros((len(y), len(k)) + y.shape[1:])
    dy[:, k, jj], dy[:, k, ii] = -y[:, ii], y[:, jj]  # rows of -B Y
    d = dy @ _weigh(mu, muc, x)[:, None] + y[:, None] @ _weigh(mu, muc, dy)
    return (d - d.swapaxes(-1, -2))[..., jj, ii].swapaxes(-1, -2)


def _hessian(mu: float, muc: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric part (S, m, m) of ``_jacobian`` at a stack R (S, n, n).

    Along R(s) = R expm(s A) the energy has second derivative <dG[A], A> =
    2 a^T J a, a the lower triangle of A, so this is half the energy's
    Hessian in that basis; at a critical point J itself is symmetric.
    """
    jac = _jacobian(mu, muc, y, x)
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


def _descend(
    W: CosseratWeights,
    F: DeformationGradient,
    starts: np.ndarray,
    tol: float,
    max_iters: int,
    energy_trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backtracking descent of a stack of starts (S, n, n), each on its own:
    the first phase of ``_search``, run to its handover.

    Each start keeps its own step t: the trial R C(-min(t, ``_MAX_STEP`` /
    ||G||) G), C the Cayley retraction ``_cayley``, is accepted if the
    energy strictly decreases, else t is halved; after acceptance t doubles
    up to ``_MAX_STEP``. A start stops at ||G|| <= tol, at t < ``_MIN_STEP``
    or after max_iters accepted steps. A round evaluates only the running
    starts, slice by slice, so no start depends on the rest of the stack.
    ``energy_trace`` needs one start. Returns the rotations, energies and
    gradient norms.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    r = np.array(starts, dtype=float)
    y, x = _stretch(r, f, eye)
    e = _energy(mu, muc, x)
    g = _gradient(mu, muc, y, x)
    gn = _norm(g)
    out_r, out_e, out_gn = r.copy(), e.copy(), gn.copy()
    t = np.full(len(r), _STEP_INIT)
    steps = np.zeros(len(r), dtype=int)
    pos = np.arange(len(r))
    if energy_trace is not None:
        energy_trace.append(float(e[0]))
    stop = (gn <= tol) | (t < _MIN_STEP)
    while True:
        if stop.any():
            # write out the starts that ended and drop them from the stack
            out_r[pos[stop]], out_e[pos[stop]], out_gn[pos[stop]] = r[stop], e[stop], gn[stop]
            keep = ~stop
            pos, r, y, x, e, g, gn, t, steps = (
                a[keep] for a in (pos, r, y, x, e, g, gn, t, steps)
            )
        if not len(pos):
            return out_r, out_e, out_gn
        r_try = r @ _cayley(-np.minimum(t, _MAX_STEP / gn)[:, None, None] * g, eye)
        y_try, x_try = _stretch(r_try, f, eye)
        e_try = _energy(mu, muc, x_try)
        ok = e_try < e
        t = np.where(ok, np.minimum(2.0 * t, _MAX_STEP), 0.5 * t)
        if not ok.any():
            stop = t < _MIN_STEP
            continue
        if not ok.all():
            pick = ok[:, None, None]
            r_try, y_try, x_try = (np.where(pick, a, b) for a, b in ((r_try, r), (y_try, y), (x_try, x)))
            e_try = np.where(ok, e_try, e)
        r, y, x, e = r_try, y_try, x_try, e_try
        steps += ok
        if energy_trace is not None:
            energy_trace.append(float(e[0]))
        # a rejected start keeps its rotation, so its gradient is unchanged
        g = _gradient(mu, muc, y, x)
        gn = _norm(g)
        stop = (t < _MIN_STEP) | (gn <= tol) | (steps >= max_iters)


def _newton(
    W: CosseratWeights, F: DeformationGradient, starts: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton iteration on G(R) = 0 for a stack of starts (S, n, n).

    Each start solves J dx = -G by least squares on the exact Jacobian and
    tries R C(f dx), C the Cayley retraction ``_cayley``, with the factor f
    halved until ||G|| shrinks. C has the velocity of expm at 0, so the
    Jacobian taken along R expm(s B) is exact for it too. A start stops at
    ||G|| <= tol, after 60 steps or once f falls to 1e-6. It converges
    quadratically to whichever critical point (minimum, saddle or maximum)
    it starts near. As in ``_descend``, a start's result does not depend on
    the rest of the stack. Returns the rotations and gradient norms.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    ii, jj = _pairs(F.dim)
    r = np.array(starts, dtype=float)
    g = _gradient(mu, muc, *_stretch(r, f, eye))
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
                a[keep] for a in (pos, r, g, gn, steps, factor, step, fresh)
            )
        if not len(pos):
            return out_r, out_gn
        if fresh.any():
            # the minimum-norm solution of J dx = -G, as a skew step
            jac = _jacobian(mu, muc, *_stretch(r[fresh], f, eye))
            dx = (np.linalg.pinv(jac) @ -g[fresh][:, jj, ii, None])[..., 0]
            new = np.flatnonzero(fresh)[:, None]
            step[new, jj, ii], step[new, ii, jj], factor[fresh] = dx, -dx, 1.0
        r_try = r @ _cayley(factor[:, None, None] * step, eye)
        g_try = _gradient(mu, muc, *_stretch(r_try, f, eye))
        gn_try = _norm(g_try)
        fresh = gn_try < gn
        r[fresh], g[fresh], gn[fresh] = r_try[fresh], g_try[fresh], gn_try[fresh]
        steps += fresh
        factor[~fresh] *= 0.5
        stop = (gn <= tol) | (steps >= 60) | (factor <= 1e-6)


def _sfn(
    W: CosseratWeights,
    F: DeformationGradient,
    starts: np.ndarray,
    tol: float,
    c: float,
    energy_trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Saddle-free Newton on the energy for a stack of starts (S, n, n).

    Each step is dx = -V diag(1 / max(|lam|, ``_EIG_FLOOR`` c)) V^T g,
    (lam, V) the eigenpairs of ``_hessian``, g the lower triangle of G and c
    the module docstring's scale, which the Hessian shares with the
    gradient (Dauphin et al., arXiv:1406.2572): Newton near a minimum, a
    descent direction everywhere, and a way down off a
    saddle, where plain Newton is drawn to it. The trial R C(dx), C the
    Cayley retraction ``_cayley``, is accepted only if the energy strictly
    falls. A start ends at ||G|| <= tol, at the first step that does not
    lower the energy (stall) or after ``_SFN_STEPS`` steps. As in
    ``_descend``, a start's result does not depend on the rest of the
    stack, and ``energy_trace`` needs one start. Returns the rotations,
    energies, gradient norms and how each start ended: 0 at tol, 1 by
    stall, 2 at the cap.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    ii, jj = _pairs(F.dim)
    floor = _EIG_FLOOR * c
    r = np.array(starts, dtype=float)
    y, x = _stretch(r, f, eye)
    e = _energy(mu, muc, x)
    g = _gradient(mu, muc, y, x)
    gn = _norm(g)
    out_r, out_e, out_gn = r.copy(), e.copy(), gn.copy()
    out_end, end = np.zeros(len(r), dtype=int), np.zeros(len(r), dtype=int)
    pos, steps = np.arange(len(r)), np.zeros(len(r), dtype=int)
    stop = gn <= tol
    while True:
        if stop.any():
            out = pos[stop]
            out_r[out], out_e[out], out_gn[out], out_end[out] = r[stop], e[stop], gn[stop], end[stop]
            keep = ~stop
            pos, r, y, x, e, g, gn, steps = (a[keep] for a in (pos, r, y, x, e, g, gn, steps))
        if not len(pos):
            return out_r, out_e, out_gn, out_end
        lam, v = np.linalg.eigh(_hessian(mu, muc, y, x))
        # products and sums, not matmul, whose rounding can depend on the stack
        vg = (v * g[:, jj, ii, None]).sum(axis=1) / np.maximum(np.abs(lam), floor)
        dx = -(v * vg[:, None, :]).sum(axis=-1)
        step = np.zeros_like(r)
        step[:, jj, ii], step[:, ii, jj] = dx, -dx
        r_try = r @ _cayley(step, eye)
        y_try, x_try = _stretch(r_try, f, eye)
        e_try = _energy(mu, muc, x_try)
        ok = e_try < e
        r[ok], y[ok], x[ok], e[ok] = r_try[ok], y_try[ok], x_try[ok], e_try[ok]
        steps += ok
        if energy_trace is not None and ok[0]:
            energy_trace.append(float(e[0]))
        # a stalled start keeps its rotation, so its gradient is unchanged
        g = _gradient(mu, muc, y, x)
        gn = _norm(g)
        end = np.where(gn <= tol, 0, np.where(ok, 2, 1))
        stop = (gn <= tol) | ~ok | (steps >= _SFN_STEPS)


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

    The scale c from ``_check_scale`` sets every threshold: ``_descend``
    runs each start until ||G|| <= ``_HANDOVER`` c, or until it stalls or
    reaches max_iters; one SVD, U V^T, projects the endpoints onto SO(n);
    ``_sfn``, with its eigenvalue floor ``_EIG_FLOOR`` c, then takes every
    start on to ||G|| <= max(tol_grad, ``_FLOOR`` c), the rounding floor
    where tol_grad lies below it, so a start converges at any input scale. ``energy_trace`` needs one start and records the
    energy after every accepted step of both phases, which strictly
    decreases; the projection adds no entry. Returns the rotations,
    energies, gradient norms and how each start ended, as ``_sfn`` does,
    converged meaning at that tolerance. The energy returned is that of
    the projected point, so where ``_sfn`` accepts no step it can differ
    from the trace's last entry by the projection's rounding-level move.
    """
    tol = max(cfg.tol_grad, _FLOOR * c)
    r, _, _ = _descend(W, F, starts, max(tol, _HANDOVER * c), cfg.max_iters, energy_trace)
    u, _, vt = np.linalg.svd(r)
    return _sfn(W, F, u @ vt, tol, c, energy_trace)


def riemannian_descent(
    W: CosseratWeights, F: DeformationGradient, R0, cfg: OracleConfig, energy_trace: list | None = None
) -> tuple[np.ndarray, float, float]:
    """Descent on the rotation group from R0, finished by saddle-free Newton.

    The one-start case of ``_search``; pass ``energy_trace`` to record the
    energy after each accepted step of both phases. Returns the rotation,
    its energy and its gradient norm; as ``_search`` states, that energy
    is the projected point's and can differ slightly from the trace's last
    entry.
    """
    r = np.asarray(R0, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"start shape {r.shape} does not match dim {F.dim}")
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
    energy wins, ties broken by start index, and Newton on the gradient
    field finishes it towards the rounding floor ||G|| <= ``_FLOOR`` c.
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
    r_best, gn_best = _newton(W, F, r[best : best + 1], _FLOOR * c)
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
    critical point, and damped Newton on the gradient field to the rounding
    floor ``_FLOOR`` c, c the module docstring's scale, which also converges
    to saddles; each runs all the starts as one stack, the Haar samples
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
    r_newt, gn_newt = _newton(W, F, starts, _FLOOR * c)
    r = np.stack((r_search, r_newt), axis=1).reshape(-1, n, n)
    gn = np.stack((gn_search, gn_newt), axis=1).ravel()

    found: list[tuple[np.ndarray, float]] = []
    for ri in r[gn <= _KEEP * c]:
        e = energy(W, ri, F)
        if not any(abs(e - ek) <= 1e-6 * (1.0 + abs(e)) and _norm(ri - rk) <= 1e-4 for rk, ek in found):
            found.append((ri, e))
    found.sort(key=lambda t: t[1])
    return found
