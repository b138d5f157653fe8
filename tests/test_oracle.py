"""The descent oracle: stacked restarts against one start at a time, and the critical scan."""

import functools
import sys

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    OracleConfig,
    critical_scan,
    critical_value,
    energy,
    enumerate_critical_partitions,
    global_minimize,
    haar_sample,
    matcore,
    oracle,
    reduced_energy,
    relative_rotation,
    riemannian_descent,
    solve,
)

from conftest import is_rotation, random_gl_plus

# max_iters = 150 lets a descent end by each rule: tolerance, step
# underflow and the cap
CFG = OracleConfig(seed=2017, samples=16, max_iters=150, tol_grad=1e-9)


def reference_descent(W, F, r0, cfg):
    """The descent rules written one start at a time, on the oracle's kernels
    and its Cayley step.

    Same arithmetic as the stacked loop, so its results must be identical.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    r = np.array(r0, dtype=float)[None]
    y, nx = oracle._stretch(mu, muc, r, f, eye)
    e = oracle._energy(y - eye, nx)
    g = oracle._gradient(y, nx)
    gn = oracle._norm(g)
    t = oracle._STEP_INIT
    for _ in range(cfg.max_iters):
        if gn[0] <= cfg.tol_grad:
            break
        moved = False
        while t >= oracle._MIN_STEP:
            r_try = r @ oracle._cayley(-min(t, oracle._MAX_STEP / gn[0]) * g, eye)
            y_try, n_try = oracle._stretch(mu, muc, r_try, f, eye)
            e_try = oracle._energy(y_try - eye, n_try)
            if e_try[0] < e[0]:
                r, e, moved = r_try, e_try, True
                break
            t *= 0.5
        if not moved:
            break
        t = min(t * 2.0, oracle._MAX_STEP)
        g = oracle._gradient(*oracle._stretch(mu, muc, r, f, eye))
        gn = oracle._norm(g)
    return r[0], e[0], gn[0]


def problems():
    """One problem per dimension 2..5, the weight regimes in turn.

    Their descents end by every rule.
    """
    rng = np.random.default_rng(44)
    out = []
    for n in (2, 3, 4, 5):
        for w in (CosseratWeights(1.0, 0.0), CosseratWeights(1.7, 0.4)):
            out.append((w, random_gl_plus(n, rng, lo=0.3, hi=3.0)))
    return [out[i] for i in (0, 3, 4, 7)]


def haar_starts(n, count):
    return np.array([haar_sample(n, np.random.default_rng((CFG.seed, i))) for i in range(count)])


def random_skew(n, count, norm, rng):
    """A stack of skew matrices, each of Frobenius norm ``norm``."""
    b = rng.standard_normal((count, n, n))
    a = b - b.swapaxes(-1, -2)
    return a * (norm / np.linalg.norm(a, axis=(-2, -1)))[:, None, None]


def test_haar_sample_of_one_dimension_is_the_identity():
    for seed in range(20):
        assert np.array_equal(haar_sample(1, np.random.default_rng(seed)), [[1.0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_haar_sample_is_a_reproducible_rotation(n):
    for seed in range(20):
        q = haar_sample(n, np.random.default_rng((seed, n)))
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-13
        assert abs(np.linalg.det(q) - 1.0) <= 1e-13
        assert np.array_equal(q, haar_sample(n, np.random.default_rng((seed, n))))


def test_haar_sample_rejects_dimension_zero():
    with pytest.raises(ValueError):
        haar_sample(0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "field, value", [("seed", 1.5), ("samples", 2.5), ("max_iters", 2.5), ("samples", 2.0)]
)
def test_oracle_config_refuses_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match="must be integers"):
        OracleConfig(**{"seed": 1, field: value})


@pytest.mark.parametrize("tol_grad", [float("inf"), float("nan"), "1e-9", 0.0, -1e-9])
def test_oracle_config_refuses_a_tolerance_that_is_not_positive_and_finite(tol_grad):
    # an infinite tolerance would end every start where it begins, as converged
    with pytest.raises(ValueError, match="tol_grad"):
        OracleConfig(seed=1, tol_grad=tol_grad)


def test_oracle_config_takes_numpy_integers():
    W, F = CosseratWeights(1.7, 0.4), DeformationGradient(np.diag([2.0, 1.0, 0.5]))
    cfg = OracleConfig(seed=np.int64(5), samples=np.int64(4), max_iters=np.int64(32))
    res = global_minimize(W, F, cfg, warm_starts=False)
    ref = global_minimize(W, F, OracleConfig(seed=5, samples=4), warm_starts=False)
    np.testing.assert_array_equal(res.best_rotation, ref.best_rotation)
    assert res.best_energy == ref.best_energy and res.restarts_converged == ref.restarts_converged


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_haar_starts_are_the_per_start_samples_in_one_read_only_stack(n):
    for seed in (0, 1, 5, 2017):
        for samples in (1, 16, 200):
            starts = oracle._haar_starts(n, seed, samples)
            ref = [haar_sample(n, np.random.default_rng((seed, i))) for i in range(samples)]
            assert starts.shape == (samples, n, n)
            assert starts.tobytes() == np.array(ref).tobytes()
            assert not starts.flags.writeable
            with pytest.raises(ValueError):
                starts[0, 0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_energy_identity_matches_the_definition(n):
    # <X, N(X)^T>, N(X) = mu sym X - muc skew X, against mu||sym X||^2 + muc||skew X||^2,
    # at the scale of F and at F scaled by 1e-6 and 1e6
    rng, eye = np.random.default_rng(90 + n), np.eye(n)
    for lo, hi in ((1.0, 3.0), (0.0, 0.0), (0.01, 0.99)):  # classical, muc = 0, 0 < muc < mu
        for _ in range(25):
            mu = float(rng.uniform(0.1, 3.0))
            muc = mu * float(rng.uniform(lo, hi))
            W, F, r = CosseratWeights(mu, muc), random_gl_plus(n, rng), haar_sample(n, rng)
            for scale in (1.0, 1e-6, 1e6):
                Fs = DeformationGradient(scale * F.matrix)
                x = r.T @ Fs.matrix - eye
                y, nx = oracle._stretch(mu, muc, r[None], Fs.matrix, eye)
                e = oracle._energy(y - eye, nx)[0]
                assert abs(e - energy(W, r, Fs)) <= 1e-13 * (1.0 + (mu + muc) * np.sum(x * x))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cayley_step_is_a_rotation(n):
    rng, eye = np.random.default_rng(60 + n), np.eye(n)
    for norm, tol in [(1e-3, 1e-14), (1.0, 1e-14), (10.0, 1e-14), (1e6, 1e-9)]:
        c = oracle._cayley(random_skew(n, 64, norm, rng), eye)
        assert np.linalg.norm(c.swapaxes(-1, -2) @ c - eye, axis=(-2, -1)).max() <= tol
        np.testing.assert_allclose(np.linalg.det(c), 1.0, rtol=0, atol=tol)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cayley_step_agrees_with_the_exponential_to_second_order(n):
    # C(A) = 1 + A + A^2/2 + A^3/4 + ..., so C(sA) - expm(sA) falls as s^3
    a, eye = random_skew(n, 1, 1.0, np.random.default_rng(70 + n)), np.eye(n)
    err = [np.linalg.norm(oracle._cayley(s * a, eye) - matcore.skew_exp(s * a)) for s in (1e-2, 1e-3)]
    assert 500.0 <= err[0] / err[1] <= 2000.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cayley_stack_is_bit_identical_to_single_slices(n):
    rng, eye = np.random.default_rng(80 + n), np.eye(n)
    a = random_skew(n, 16, 1.0, rng) * rng.uniform(1e-3, 10.0, 16)[:, None, None]
    c = oracle._cayley(a, eye)
    for i in range(len(a)):
        np.testing.assert_array_equal(oracle._cayley(a[i : i + 1], eye)[0], c[i])
    split = [oracle._cayley(a[:5], eye), oracle._cayley(a[5:], eye)]
    np.testing.assert_array_equal(np.concatenate(split), c)


@pytest.mark.parametrize("theta", [0.5, 3.0, 1e6])
def test_cayley_step_turns_by_twice_the_arctangent_of_half_the_angle(theta):
    # the step saturates short of a half turn instead of wrapping around
    x, y, z = np.array([1.0, -2.0, 2.0]) / 3.0
    a = theta * np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    c = oracle._cayley(a[None], np.eye(3))[0]
    # sin and cos of the angle, each doubled: ||C - C^T|| = 2 sqrt(2) sin, tr C - 1 = 2 cos
    angle = np.arctan2(np.linalg.norm(c - c.T) / np.sqrt(2.0), np.trace(c) - 1.0)
    assert abs(angle - 2.0 * np.arctan(theta / 2.0)) <= 1e-15


@pytest.mark.parametrize("W, F", problems())
def test_stack_follows_the_one_start_rules(W, F):
    starts = haar_starts(F.dim, 4)
    c = oracle._check_scale(W, F)
    r, e, gn, _ = oracle._loop(W, F, starts, CFG.tol_grad, c, "descent", CFG.max_iters)
    for i, r0 in enumerate(starts):
        rr, er, gr = reference_descent(W, F, r0, CFG)
        np.testing.assert_array_equal(rr, r[i])
        assert er == e[i] and gr == gn[i]


@pytest.mark.parametrize("W, F", problems())
def test_riemannian_descent_is_the_one_start_case(W, F):
    starts = haar_starts(F.dim, 4)
    r, e, gn, _ = oracle._search(W, F, starts, CFG, oracle._check_scale(W, F))
    for i, r0 in enumerate(starts):
        trace = []
        ri, ei, gi = riemannian_descent(W, F, r0, CFG, energy_trace=trace)
        np.testing.assert_array_equal(ri, r[i])
        assert ei == e[i] and gi == gn[i]
        y0, n0 = oracle._stretch(W.mu, W.muc, r0[None], F.matrix, np.eye(F.dim))
        assert trace[0] == oracle._energy(y0 - np.eye(F.dim), n0)[0]
        assert trace[-1] == ei
        # accepted steps of both phases strictly decrease the energy
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert is_rotation(ri, tol=1e-12)


def test_riemannian_descent_refuses_a_start_off_the_rotations():
    # unchecked, these starts gave a det -1 matrix at energy 8.602 with
    # ||G|| = 0, a rotation at 5.202 (the minimum is 3.769) and a LinAlgError
    W, F = CosseratWeights(1.7, 0.4), DeformationGradient(np.diag([2.6, 1.5, 0.5]))
    for r0 in (np.diag([1.0, 1.0, -1.0]), 3.0 * np.eye(3), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="not a rotation"):
            riemannian_descent(W, F, r0, CFG)
    # a rotation rounded to 12 digits is within the tolerance
    r, e, _ = riemannian_descent(W, F, np.round(haar_sample(3, np.random.default_rng(1)), 12), CFG)
    assert is_rotation(r, tol=1e-12) and abs(e - reduced_energy(W, F)) <= 1e-12


def handed_over(W, F, count):
    """Haar starts and their descents to the handover, where saddle-free Newton takes over."""
    starts = haar_starts(F.dim, count)
    c = oracle._check_scale(W, F)
    r = oracle._loop(W, F, starts, oracle._HANDOVER * c, c, "descent", OracleConfig.max_iters)[0]
    return np.concatenate((starts, r))


@pytest.mark.parametrize("W, F", problems())
@pytest.mark.parametrize(
    "mode, tol", [("descent", CFG.tol_grad), ("saddle_free", CFG.tol_grad), ("root", 1e-12), ("root", 0.0)]
)
def test_stack_is_bit_identical_to_single_starts(W, F, mode, tol):
    # root mode at tol = 0 never reaches it: every start ends at the rounding
    # floor, where no step shrinks ||G||, or at the step cap
    starts = handed_over(W, F, 8) if mode == "saddle_free" else haar_starts(F.dim, CFG.samples)
    cap = CFG.max_iters if mode == "descent" else oracle._ACCEPT_CAP
    run = functools.partial(oracle._loop, W, F, tol=tol, c=oracle._check_scale(W, F), mode=mode, cap=cap)
    whole = run(starts)
    for i, r0 in enumerate(starts):
        for one, out in zip(run(r0[None]), whole):
            np.testing.assert_array_equal(one[0], out[i])
    # splitting the stack changes nothing either
    split = [run(starts[:5]), run(starts[5:])]
    for out, a, b in zip(whole, *split):
        np.testing.assert_array_equal(np.concatenate([a, b]), out)
    r, _, gn, end = whole
    # an ending at tolerance is the only one with ||G|| <= tol
    assert np.array_equal(end == 0, gn <= tol)
    if mode != "descent":
        assert all(is_rotation(x, tol=1e-12) for x in r)
    if mode == "saddle_free":
        assert (end == 0).any()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mu, muc", [(1.0, 0.0), (1.7, 0.4), (1.0, 2.0)])
def test_hessian_quadratic_form_matches_second_differences(n, mu, muc):
    # d^2/ds^2 W(R expm(s A)) = 2 a^T H a at s = 0, a the lower triangle of A
    rng = np.random.default_rng(30 + n)
    F = random_gl_plus(n, rng, lo=0.3, hi=3.0)
    f, eye = F.matrix, np.eye(n)
    r = haar_starts(n, 3)
    hess = oracle._hessian(mu, muc, *oracle._stretch(mu, muc, r, f, eye))
    np.testing.assert_array_equal(hess, hess.swapaxes(-1, -2))
    ii, jj = np.triu_indices(n, 1)
    h = 1e-4
    for a in random_skew(n, 4, 1.0, rng):
        quad = 2.0 * np.einsum("i,sij,j->s", a[jj, ii], hess, a[jj, ii])
        ep, em, e0 = (
            oracle._energy(y - eye, nx)
            for y, nx in (
                oracle._stretch(mu, muc, q, f, eye)
                for q in (r @ matcore.skew_exp(h * a), r @ matcore.skew_exp(-h * a), r)
            )
        )
        second = (ep - 2.0 * e0 + em) / (h * h)
        np.testing.assert_allclose(second, quad, rtol=0, atol=1e-5 * (1.0 + np.abs(quad).max()))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mu, muc", [(1.0, 0.0), (1.7, 0.4), (1.0, 2.0)])
def test_search_started_at_a_closed_form_minimizer_stays_there(n, mu, muc):
    rng = np.random.default_rng(50 + n)
    W, F = CosseratWeights(mu, muc), random_gl_plus(n, rng, lo=0.3, hi=3.0)
    starts = np.array(solve(W, F).minimizers)
    # tol_grad = 1e-300 is below any rounding floor, so the search ends at
    # the floor 1e-13 c or where a step no longer lowers the energy
    for cfg in (CFG, OracleConfig(seed=0, tol_grad=1e-300)):
        r, e, gn, end = oracle._search(W, F, starts, cfg, oracle._check_scale(W, F))
        assert np.linalg.norm(r - starts, axis=(-2, -1)).max() <= 1e-10
        np.testing.assert_allclose(e, reduced_energy(W, F), rtol=1e-13, atol=1e-13)
        assert gn.max() <= 1e-9 and np.isin(end, (0, 1)).all()


# 3D at weights (1.2805, 0): from Haar start (2017, 9) the descent's step
# settles where t ||G|| is about 2.5 and its Cayley steps bounce across a
# valley, lowering the energy by about 1e-11 a step, until max_iters;
# saddle-free Newton then takes the start to the minimum in a few steps
BOUNCE_W = CosseratWeights(1.28054218472887, 0.0)
BOUNCE_F = DeformationGradient([
    [0.4980019907066836, 0.16838397041321, 0.014143307318551705],
    [-0.16975972949625515, -0.20353191918421748, -0.5656411922140945],
    [-0.10418743745045066, 0.5026598515754087, 0.1654284167570435],
])


def test_search_gets_out_of_a_cayley_bounce():
    W, F = BOUNCE_W, BOUNCE_F
    cfg = OracleConfig(seed=2017, samples=16, tol_grad=1e-9)
    r0 = haar_sample(3, np.random.default_rng((2017, 9)))
    wred = reduced_energy(W, F)
    c = oracle._check_scale(W, F)
    _, e_desc, gn_desc, _ = oracle._loop(W, F, r0[None], cfg.tol_grad, c, "descent", cfg.max_iters)
    assert e_desc[0] > wred + 0.3 and gn_desc[0] > 0.5
    trace = []
    r, e, gn = riemannian_descent(W, F, r0, cfg, energy_trace=trace)
    assert abs(e - wred) <= 1e-12 * (1.0 + wred) and gn <= 1e-9
    assert len(trace) - 1 > cfg.max_iters and is_rotation(r, tol=1e-12)


def test_global_minimize_hands_a_bouncing_start_to_newton_at_the_step_cap(monkeypatch):
    W, F = BOUNCE_W, BOUNCE_F
    cfg = OracleConfig(seed=2017, samples=16, tol_grad=1e-9)
    r0 = haar_sample(3, np.random.default_rng((2017, 9)))
    trace, c = [], oracle._check_scale(W, F)
    oracle._loop(W, F, r0[None], oracle._HANDOVER * c, c, "descent", cfg.max_iters, trace)
    assert len(trace) == cfg.max_iters + 1
    # one _cayley call per descent round, and the stack runs until its
    # slowest start ends: the default cap keeps the bounce from setting the op's cost
    modes, cayley = [], oracle._cayley

    def counted(a, eye):
        modes.append(sys._getframe(1).f_locals.get("mode"))
        return cayley(a, eye)

    monkeypatch.setattr(oracle, "_cayley", counted)
    res = global_minimize(W, F, cfg, warm_starts=False)
    wred = reduced_energy(W, F)
    assert 0 < modes.count("descent") <= 64
    assert abs(res.best_energy - wred) <= 1e-12 * (1.0 + wred)
    assert res.restarts_converged == 16


@pytest.mark.parametrize("W, F", problems())
@pytest.mark.parametrize("warm_starts", [False, True])
def test_newton_finishes_the_winner_at_the_rounding_floor(W, F, warm_starts):
    res = global_minimize(W, F, CFG, warm_starts=warm_starts)
    assert res.grad_norm_at_best <= 1e-13 * (1.0 + np.sum(F.matrix * F.matrix))


@pytest.mark.parametrize("W, F", problems())
def test_global_minimize_repeats_bit_for_bit(W, F):
    # the second call takes its starts from the cache, the third builds them anew
    runs = [global_minimize(W, F, CFG, warm_starts=False) for _ in range(2)]
    oracle._haar_starts.cache_clear()
    runs.append(global_minimize(W, F, CFG, warm_starts=False))
    first = runs[0]
    for res in runs[1:]:
        assert res.best_rotation.tobytes() == first.best_rotation.tobytes()
        assert (res.best_energy, res.grad_norm_at_best) == (first.best_energy, first.grad_norm_at_best)
        ends = (res.restarts_converged, res.restarts_stalled, res.restarts_capped)
        assert ends == (first.restarts_converged, first.restarts_stalled, first.restarts_capped)


@pytest.mark.parametrize("W, F", problems())
@pytest.mark.parametrize("warm_starts", [False, True])
def test_restart_endings_add_up_to_the_starts(W, F, warm_starts):
    res = global_minimize(W, F, CFG, warm_starts=warm_starts)
    warm = 0 if not warm_starts else 1 + (0 if W.is_classical else min(8, 2 ** solve(W, F).k))
    ends = (res.restarts_converged, res.restarts_stalled, res.restarts_capped)
    assert sum(ends) == CFG.samples + warm and min(ends) >= 0
    assert abs(res.best_energy - reduced_energy(W, F)) <= 1e-12 * (1.0 + abs(res.best_energy))


def scan_cases():
    rng = np.random.default_rng(2017)
    cases = [np.diag([3.0, 1.0])]
    for nus in ([3.0, 1.5, 0.4], [2.5, 1.7, 1.1, 0.3]):
        n = len(nus)
        cases.append(haar_sample(n, rng) @ np.diag(nus) @ haar_sample(n, rng).T)
    return cases


def symmetric_square_defect(W, r, F):
    """The paper's stationarity condition for mu > muc: ||skew((Rhat D / lam - 1)^2)||."""
    x = relative_rotation(r, F) @ np.diag(F.singular_values / W.scaling) - np.eye(F.dim)
    y = x @ x
    return np.linalg.norm((y - y.T) / 2.0)


def reference_certificate(W, r, F):
    """The defect for mu > muc, the gradient norm for classical weights."""
    if W.is_classical:
        return oracle._norm(oracle._gradient(*oracle._stretch(W.mu, W.muc, r, F.matrix, np.eye(F.dim))))
    return symmetric_square_defect(W, r, F)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("positive_muc", [False, True], ids=["muc=0", "0<muc<mu"])
def test_symmetric_square_defect_is_the_scaled_gradient_norm(n, positive_muc):
    # G = (mu - muc) skew(Y^2) - 2 mu skew(Y) = mu lam skew((Y / lam - 1)^2), Q^T Y Q = Rhat D
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        mu = rng.uniform(0.5, 3.0)
        W = CosseratWeights(mu, rng.uniform(0.0, mu) if positive_muc else 0.0)
        F = random_gl_plus(n, rng, lo=0.3, hi=3.0)
        r = haar_sample(n, rng)
        gn = oracle._norm(oracle._gradient(*oracle._stretch(W.mu, W.muc, r, F.matrix, np.eye(n))))
        assert gn == pytest.approx(W.mu * W.scaling * symmetric_square_defect(W, r, F), rel=1e-12)


@pytest.mark.parametrize("m", scan_cases())
def test_critical_scan_finds_census_values(m):
    W, F = CosseratWeights(1.0, 0.0), DeformationGradient(m)
    found = critical_scan(W, F, OracleConfig(seed=3, samples=8))
    nus = F.singular_values
    census = [critical_value(p, nus) for p in enumerate_critical_partitions(nus)]
    assert found
    for r, e in found:
        assert min(abs(e - v) for v in census) <= 1e-8 * (1.0 + abs(e))
        assert is_rotation(r, tol=1e-12)
        assert symmetric_square_defect(W, r, F) <= 1e-8
    assert found[0][1] == pytest.approx(reduced_energy(W, F), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m", scan_cases())
def test_critical_scan_finds_the_whole_census(m):
    W, F = CosseratWeights(1.0, 0.0), DeformationGradient(m)
    found = [e for _, e in critical_scan(W, F, OracleConfig(seed=3, samples=60))]
    nus = F.singular_values
    census = [critical_value(p, nus) for p in enumerate_critical_partitions(nus)]
    for v in census:
        assert min(abs(e - v) for e in found) <= 1e-8 * (1.0 + abs(v))
    for e in found:
        assert min(abs(e - v) for v in census) <= 1e-8 * (1.0 + abs(e))


def test_critical_scan_tells_points_apart_at_large_energies():
    # the energies are about 1e11 and carry about 1e-4 of rounding, so an
    # absolute energy tolerance would report one rotation several times
    W, F = CosseratWeights(1.0, 0.0), DeformationGradient(np.diag([1.0, 0.5]) * 1e6)
    found = [r for r, _ in critical_scan(W, F, OracleConfig(seed=3, samples=8))]
    assert len(found) > 1
    for i, a in enumerate(found):
        for b in found[:i]:
            assert np.linalg.norm(a - b) > 1e-4


@pytest.mark.parametrize("m", scan_cases())
@pytest.mark.parametrize("mu, muc", [(1.7, 0.4), (1.0, 2.0)])
def test_critical_scan_in_the_other_weight_regimes(m, mu, muc):
    W, F = CosseratWeights(mu, muc), DeformationGradient(m)
    found = critical_scan(W, F, OracleConfig(seed=3, samples=8))
    assert found
    for r, _ in found:
        assert is_rotation(r, tol=1e-12)
        assert reference_certificate(W, r, F) <= 1e-8
    assert found[0][1] == pytest.approx(reduced_energy(W, F), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mu, muc", [(1.0, 0.0), (1.7, 0.4), (1.0, 2.0)])
def test_jacobian_matches_central_differences(n, mu, muc):
    rng = np.random.default_rng(n)
    f, eye = random_gl_plus(n, rng, lo=0.3, hi=3.0).matrix, np.eye(n)
    r = haar_starts(n, 3)
    jac = oracle._jacobian(mu, muc, *oracle._stretch(mu, muc, r, f, eye))
    ii, jj = np.triu_indices(n, 1)
    h = 1e-6
    for k in range(len(ii)):
        b = np.zeros((n, n))
        b[jj[k], ii[k]], b[ii[k], jj[k]] = 1.0, -1.0
        gp, gm = (
            oracle._gradient(*oracle._stretch(mu, muc, r @ matcore.skew_exp(s * b), f, eye))
            for s in (h, -h)
        )
        np.testing.assert_allclose(jac[:, :, k], (gp - gm)[:, jj, ii] / (2 * h), rtol=0, atol=1e-7)


@pytest.mark.parametrize("search", ["global_minimize", "critical_scan", "riemannian_descent"])
def test_the_searches_refuse_a_scale_where_the_gradient_norm_overflows(search):
    cfg = OracleConfig(seed=0, samples=4, max_iters=50)

    def call(muc, scale):
        start = (np.eye(2),) if search == "riemannian_descent" else ()
        F = DeformationGradient(np.diag([scale, scale]))
        return getattr(oracle, search)(CosseratWeights(1.0, muc), F, *start, cfg)

    for muc, scale in ((2.0, 9e153), (0.0, 1e77)):
        with pytest.raises(ValueError, match="input scale"):
            call(muc, scale)
    # one decade lower runs, and without a warning, which the test configuration makes an error
    for muc in (0.0, 2.0):
        call(muc, 1e76)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("mu, muc", [(1.0, 0.0), (1.7, 0.4), (1.0, 2.0)])
@pytest.mark.parametrize("scale", [1e4, 1e6, 1e9, 1e12])
def test_searches_stay_on_the_rotations_at_large_scale_in_odd_n(n, mu, muc, scale):
    # ||G|| grows like ||F||^2, and 1 - A/2 is singular for a skew A of odd
    # order once ||A|| >> 1e16: the descent caps its step's norm, not only t.
    # Its large Cayley steps still leave rounding off SO(n), which the
    # projection at the handover to Newton removes
    W = CosseratWeights(mu, muc)
    F = DeformationGradient(np.diag(np.linspace(1.0, 0.5, n)) * scale)
    cfg = OracleConfig(seed=2017, samples=8)
    res = global_minimize(W, F, cfg, warm_starts=False)
    wred = reduced_energy(W, F)
    assert is_rotation(res.best_rotation, tol=1e-13)
    assert abs(res.best_energy - wred) <= 1e-9 * (1.0 + wred)
    found = critical_scan(W, F, OracleConfig(seed=3, samples=8))
    assert found and all(is_rotation(r, tol=1e-13) for r, _ in found)
    for r0 in haar_starts(n, 4):
        assert is_rotation(riemannian_descent(W, F, r0, cfg)[0], tol=1e-13)


# two 5D inputs at (1, 0), ||F|| about 3e7 and 3e2, where Newton from the raw
# starts took pseudo-inverse steps far above the cap _NEWTON_STEP and kept
# critical_scan points 3.6e-13 and 7.2e-13 off SO(n)
NEWTON_JUMP_F = (
    [[2710290.4794224855, 482605.7993699003, -12726921.392228907, 1897312.049154061, 1213814.7909068256],
     [241120.86622393882, -10016036.550871614, 300817.68785185996, 2861998.051259361, 8558178.237917889],
     [-6123393.152460637, -1436496.7051040104, 322208.1485204169, -9210313.132157227, 1613221.9948158872],
     [-7337619.069164939, 6872054.613916104, -4873751.319025519, 3384969.742231582, 3287240.1986113107],
     [11019523.401030907, 2823284.8241866888, 6305253.354575877, -4321938.677904849, 9082474.912157683]],
    [[46.59097651703986, 58.34090355764327, -10.548129638759328, -38.49891594716342, 15.183993868042897],
     [4.334198707234297, 2.6138932643681425, 5.669656041902466, -93.6529973456608, 43.647243596724685],
     [-33.85017919095482, -38.203043051492, 8.036594655159213, 57.98830003566245, 89.38314938280504],
     [-46.35049654413516, 80.94710511732897, 11.783873946893564, -64.56810205870299, 22.953105324657727],
     [-76.22105574345349, 46.92905289629667, -101.84845638932791, 9.754262990788597, 39.59450841236088]],
)


@pytest.mark.parametrize("m", NEWTON_JUMP_F, ids=["large", "small"])
def test_critical_scan_newton_steps_keep_its_points_on_the_rotations(m):
    W, F = CosseratWeights(1.0, 0.0), DeformationGradient(m)
    found = critical_scan(W, F, OracleConfig(seed=7, samples=8))
    assert found and all(is_rotation(r, tol=1e-13) for r, _ in found)


def test_critical_scan_saddle_free_pass_finds_the_global_minimum_at_scale():
    # a 4D input at (1, 0) scaled by 1e3 where no root-mode Newton endpoint
    # is the global minimum: the lowest of them reads 593,951 against 57,459.6
    m = [[0.5143250199754756, 0.6210399608696832, 1.6420416048570143, 1.3773487320485445],
         [-0.8146735654099031, 1.9531775772298834, -0.3502067686998757, -1.2256891915124224],
         [1.5707891831479792, -0.2703300644270496, 1.4188103287250111, -0.9831638267597336],
         [-1.9022595850181516, -1.2166560662116621, 1.1451522985837257, -0.5821662666483438]]
    W, F = CosseratWeights(1.0, 0.0), DeformationGradient(1e3 * np.array(m))
    found = critical_scan(W, F, OracleConfig(seed=7, samples=60))
    wred = reduced_energy(W, F)
    assert abs(found[0][1] - wred) <= 1e-12 * wred


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_global_minimize_returns_a_rotation_never_below_the_closed_form(n, scale):
    # the descent's Cayley steps leave about 1e-10 of orthogonality error in
    # odd n at large scale, enough to reach an energy below the minimum
    F = DeformationGradient(np.diag(np.linspace(3.0, 1.0, n)) * scale)
    for muc in (0.0, 0.4, 3.4):
        W = CosseratWeights(1.7, muc)
        res = global_minimize(W, F, OracleConfig(seed=161803, samples=16), warm_starts=False)
        wred = reduced_energy(W, F)
        assert is_rotation(res.best_rotation, tol=1e-14)
        assert res.best_energy >= wred - 1e-14 * (1.0 + wred)


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_critical_scan_finds_both_minimizers_at_large_scale(scale):
    # the keep test is a fixed fraction of the gradient's scale, so the
    # endpoints at the rounding floor of ||G||, which grows like ||F||^2, count
    W, F = CosseratWeights(1.0, 0.0), DeformationGradient(np.diag([1.0, 0.5]) * scale)
    found = critical_scan(W, F, OracleConfig(seed=3, samples=8))
    for m in solve(W, F).minimizers:
        assert min(np.linalg.norm(r - m) for r, _ in found) <= 1e-10
    assert found[0][1] == pytest.approx(reduced_energy(W, F), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("muc", [0.0, 0.4, 3.4])
def test_most_starts_converge_at_large_scale(muc):
    # tol_grad = 1e-9 lies far below the rounding floor of ||G|| here, about
    # 1e-13 c with c from 5e13 to 1e14, so only that floor lets a start converge
    W, F = CosseratWeights(1.7, muc), DeformationGradient(np.diag([3.0, 2.0, 1.0]) * 1e6)
    res = global_minimize(W, F, OracleConfig(seed=161803, samples=16, tol_grad=1e-9))
    starts = res.restarts_converged + res.restarts_stalled + res.restarts_capped
    assert res.restarts_converged >= starts / 2


def test_newton_finishes_a_descent_stuck_in_a_narrow_valley():
    # at muc > mu the best restart bounces across a narrow valley, as descent
    # accepts any decrease: 10,000 more descent steps from it still end 8e-4
    # above the minimum with |G| = 0.18
    W, F = CosseratWeights(1.0, 3.0), DeformationGradient(np.diag([2.0, 2.0, 0.5]))
    cfg = OracleConfig(seed=2017, samples=16, tol_grad=1e-9)
    res = global_minimize(W, F, cfg, warm_starts=False)
    assert abs(res.best_energy - reduced_energy(W, F)) <= 1e-12
    assert res.grad_norm_at_best <= 1e-9
