"""The descent oracle: stacked restarts against one start at a time, and the critical scan."""

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    OracleConfig,
    critical_scan,
    critical_value,
    enumerate_critical_partitions,
    global_minimize,
    haar_sample,
    is_rotation,
    matcore,
    oracle,
    reduced_energy,
    relative_rotation,
    riemannian_descent,
)

from conftest import random_gl_plus

# max_iters = 150 lets a descent end by each rule: tolerance, step
# underflow and the cap, and pass the re-projections at 64 and 128 steps
CFG = OracleConfig(seed=2017, samples=16, max_iters=150, tol_grad=1e-9)


def reference_descent(W, F, r0, cfg):
    """The descent rules written one start at a time, on the oracle's kernels.

    Same arithmetic as the stacked loop, so its results must be identical.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    r = np.array(r0, dtype=float)[None]
    e = oracle._energy(mu, muc, r, f, eye)
    g = oracle._gradient(mu, muc, r, f, eye)
    gn = oracle._norm(g)
    t = oracle._STEP_INIT
    for it in range(cfg.max_iters):
        if gn[0] <= cfg.tol_grad:
            break
        moved = False
        while t >= oracle._MIN_STEP:
            r_try = r @ matcore.skew_exp(-t * g)
            e_try = oracle._energy(mu, muc, r_try, f, eye)
            if e_try[0] < e[0]:
                r, e, moved = r_try, e_try, True
                break
            t *= 0.5
        if not moved:
            break
        t = min(t * 2.0, oracle._MAX_STEP)
        if (it + 1) % 64 == 0:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
            e = oracle._energy(mu, muc, r, f, eye)
        g = oracle._gradient(mu, muc, r, f, eye)
        gn = oracle._norm(g)
    return r[0], e[0], gn[0]


def problems():
    """One problem per dimension 2..5, the weight regimes in turn.

    Their descents end by every rule, some after more than 64 steps.
    """
    rng = np.random.default_rng(44)
    out = []
    for n in (2, 3, 4, 5):
        for w in (CosseratWeights(1.0, 0.0), CosseratWeights(1.7, 0.4)):
            out.append((w, random_gl_plus(n, rng, lo=0.3, hi=3.0)))
    return [out[i] for i in (0, 3, 4, 7)]


def haar_starts(n, count):
    return np.array([haar_sample(n, np.random.default_rng((CFG.seed, i))) for i in range(count)])


@pytest.mark.parametrize("W, F", problems())
def test_stack_is_bit_identical_to_single_starts(W, F):
    starts = haar_starts(F.dim, CFG.samples)
    r, e, gn = oracle._descend(W, F, starts, CFG)
    for i, r0 in enumerate(starts):
        ri, ei, gi = oracle._descend(W, F, r0[None], CFG)
        np.testing.assert_array_equal(ri[0], r[i])
        assert ei[0] == e[i] and gi[0] == gn[i]
    # splitting the stack changes nothing either
    ra, ea, ga = oracle._descend(W, F, starts[:5], CFG)
    rb, eb, gb = oracle._descend(W, F, starts[5:], CFG)
    np.testing.assert_array_equal(np.concatenate([ra, rb]), r)
    np.testing.assert_array_equal(np.concatenate([ea, eb]), e)
    np.testing.assert_array_equal(np.concatenate([ga, gb]), gn)


@pytest.mark.parametrize("W, F", problems())
def test_stack_follows_the_one_start_rules(W, F):
    starts = haar_starts(F.dim, 4)
    r, e, gn = oracle._descend(W, F, starts, CFG)
    for i, r0 in enumerate(starts):
        rr, er, gr = reference_descent(W, F, r0, CFG)
        np.testing.assert_array_equal(rr, r[i])
        assert er == e[i] and gr == gn[i]


@pytest.mark.parametrize("W, F", problems())
def test_riemannian_descent_is_the_one_start_case(W, F):
    starts = haar_starts(F.dim, 4)
    r, e, gn = oracle._descend(W, F, starts, CFG)
    for i, r0 in enumerate(starts):
        trace = []
        ri, ei, gi = riemannian_descent(W, F, r0, CFG, energy_trace=trace)
        np.testing.assert_array_equal(ri, r[i])
        assert ei == e[i] and gi == gn[i]
        assert trace[0] == oracle._energy(W.mu, W.muc, r0[None], F.matrix, np.eye(F.dim))[0]
        if (len(trace) - 1) % 64:
            assert trace[-1] == ei
        # accepted steps strictly decrease the energy; only the SVD
        # re-projection every 64 steps may move it, by rounding
        for k, (a, b) in enumerate(zip(trace, trace[1:]), start=1):
            if (k - 1) % 64 or k == 1:
                assert b < a
            else:
                assert b < a + 1e-13 * (1.0 + abs(a))
        assert is_rotation(ri, tol=1e-12)


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
    return np.linalg.norm(matcore.skew(x @ x))


def reference_certificate(W, r, F):
    """The defect for mu > muc, the gradient norm for classical weights."""
    if W.is_classical:
        return oracle._norm(oracle._gradient(W.mu, W.muc, r, F.matrix, np.eye(F.dim)))
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
        gn = oracle._norm(oracle._gradient(W.mu, W.muc, r, F.matrix, np.eye(n)))
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
    jac = oracle._jacobian(mu, muc, r, f, eye)
    ii, jj = np.triu_indices(n, 1)
    h = 1e-6
    for k in range(len(ii)):
        b = np.zeros((n, n))
        b[jj[k], ii[k]], b[ii[k], jj[k]] = 1.0, -1.0
        gp, gm = (oracle._gradient(mu, muc, r @ matcore.skew_exp(s * b), f, eye) for s in (h, -h))
        np.testing.assert_allclose(jac[:, :, k], (gp - gm)[:, jj, ii] / (2 * h), rtol=0, atol=1e-7)


@pytest.mark.parametrize("W, F", problems())
@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_newton_stack_is_bit_identical_to_single_starts(W, F, tol):
    # tol = 0 is never reached: every start ends at the rounding floor,
    # where no step shrinks ||G||, or at the step cap
    starts = haar_starts(F.dim, CFG.samples)
    r, gn = oracle._newton(W, F, starts, tol)
    for i, r0 in enumerate(starts):
        ri, gi = oracle._newton(W, F, r0[None], tol)
        np.testing.assert_array_equal(ri[0], r[i])
        assert gi[0] == gn[i]
    ra, ga = oracle._newton(W, F, starts[:5], tol)
    rb, gb = oracle._newton(W, F, starts[5:], tol)
    np.testing.assert_array_equal(np.concatenate([ra, rb]), r)
    np.testing.assert_array_equal(np.concatenate([ga, gb]), gn)
    assert all(is_rotation(x, tol=1e-12) for x in r)


def test_newton_finishes_a_descent_stuck_in_a_narrow_valley():
    # at muc > mu the best restart bounces across a narrow valley, as descent
    # accepts any decrease: 10,000 more descent steps from it still end 8e-4
    # above the minimum with |G| = 0.18
    W, F = CosseratWeights(1.0, 3.0), DeformationGradient(np.diag([2.0, 2.0, 0.5]))
    cfg = OracleConfig(seed=2017, samples=16, tol_grad=1e-9)
    res = global_minimize(W, F, cfg, warm_starts=False)
    assert abs(res.best_energy - reduced_energy(W, F)) <= 1e-12
    assert res.grad_norm_at_best <= 1e-9
