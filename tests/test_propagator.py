"""Tests of the RK4 step propagators shared by shooting and fundamental solutions.

Shooting (BoundaryValueFamily.transfer and its batches) and the Maslov side
of the Hamiltonian identities (fundamental_solution, FundamentalSolution.at)
build their solutions from one table per family of the RK4 propagators'
coefficients as polynomials in mu and lambda: shooting multiplies each two
consecutive steps out once per lambda, fundamental solutions read the mu^0
coefficients, one row product per lambda.  The table is checked against the
stage formulas run directly on samples of S, and both sides against code
that is not maslovflow: scipy's DOP853 integrator and a plain RK4 loop that
lives only in this file.

Shooting with t-independent S uses the stacked Pade exponential expm_stack
instead; it is checked against closed forms and scipy's expm, and the Maslov
side must keep scipy's expm so that the two pipelines share no exponential.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from maslovflow import (
    BoundaryValueFamily,
    ConstantPath,
    SymmetricFamily,
    SymplecticActionPath,
    clm_hamiltonian,
    fundamental_solution,
    gamma_nor,
    l1_frame,
    maslov_pair,
    spectrum_window,
    standard_J,
    three_term_identity,
)
from maslovflow import propagator, specflow
from maslovflow.propagator import (
    expm_stack,
    ordered_product,
    paired_steps,
    prefix_products,
    rk4_step_coefficients,
    rk4_step_propagators,
    rk4_steps_at,
)
from maslovflow.suites import random_action, random_lagrangian_frame, random_pair, random_symmetric, random_symmetric_family


def _family(n: int, seed: int) -> SymmetricFamily:
    """A t-dependent family, cubic in t, with coefficients of order one."""
    rng = np.random.default_rng(seed)
    return SymmetricFamily(rng.normal(size=(2, 4, 2 * n, 2 * n)) * 0.6)


def _solve_ivp_flow(K, dim: int, t_eval):
    """Phi(t) for Phi' = K(t) Phi, Phi(0) = I, by DOP853 at rtol 1e-12."""

    def rhs(t, y):
        return (K(t) @ y.reshape(dim, dim)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, float(t_eval[-1])), np.eye(dim).ravel(), method="DOP853",
        rtol=1e-12, atol=1e-13, t_eval=t_eval,
    )
    assert sol.success
    return sol.y.T.reshape(-1, dim, dim)


def _loop_rk4(K, dim: int, steps: int):
    """Every node of classical RK4 for Phi' = K(t) Phi, stepped one by one."""
    h = 1.0 / steps
    Phi = np.eye(dim)
    out = [Phi]
    for k in range(steps):
        t = k * h
        k1 = K(t) @ Phi
        k2 = K(t + 0.5 * h) @ (Phi + 0.5 * h * k1)
        k3 = K(t + 0.5 * h) @ (Phi + 0.5 * h * k2)
        k4 = K(t + h) @ (Phi + h * k3)
        Phi = Phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(Phi)
    return np.array(out)


def _rk4_bound(steps: int) -> float:
    """Fourth-order global error bound for these families (|S| up to about 7):
    measured errors stay below a fifth of it at 100 and 257 steps."""
    return 20.0 / steps**4


def _transfer_stack(fam: BoundaryValueFamily, lam: float, mus: np.ndarray) -> np.ndarray:
    """Phi(1) at each mu through the family's lambda-stack path, at one lambda."""
    return fam._transfer_at(*fam._slices(np.full(mus.shape, lam)), mus)


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [100, 257])
def test_transfer_matrix_against_solve_ivp_and_loop(n, steps):
    S = _family(n, seed=10 + n)
    J = standard_J(n)
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), S, steps=steps)
    lam = 0.7
    for mu in (-3.1, 0.4, 2.5):
        K = lambda t: J @ S(lam, t) - mu * J  # noqa: E731
        Phi = fam.transfer(lam, mu)
        exact = _solve_ivp_flow(K, 2 * n, [1.0])[-1]
        assert _rel(Phi, exact) < _rk4_bound(steps)
        assert _rel(Phi, _loop_rk4(K, 2 * n, steps)[-1]) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [100, 257])
def test_step_coefficients_match_step_propagators(n, steps):
    # P_k(mu) = sum_j C_kj mu^j is the RK4 propagator of K(t) - mu J
    S = _family(n, seed=40 + n)
    J = standard_J(n)
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    nodes, mids = J @ S(0.45, ts), J @ S(0.45, ts[:-1] + 0.5 * h)
    C = np.stack([Tj[0] for Tj in rk4_step_coefficients(nodes[None], mids[None], h)])
    assert C.shape == (5, steps, 2 * n, 2 * n)
    assert np.array_equal(C[0], rk4_step_propagators(nodes, mids, h))
    assert _rel(C[4], np.broadcast_to(h**4 / 24.0 * np.eye(2 * n), C[4].shape)) < 1e-15
    # and exactly one constant multiple of I at every step
    assert np.array_equal(C[4], np.broadcast_to(C[4][0, 0, 0] * np.eye(2 * n), C[4].shape))
    mus = np.random.default_rng(steps + n).uniform(-12.0, 12.0, size=7)
    for mu, P in zip(mus, rk4_steps_at(C, mus)):
        assert _rel(P, rk4_step_propagators(nodes - mu * J, mids - mu * J, h)) < 1e-13


def _one_lambda_coefficients(nodes, mids, h, D):
    """The mu-coefficients (5, N, d, d) of the RK4 propagators of K(t) + mu D,
    the stage formulas written out on arrays of mu-coefficients: the one-block
    case of rk4_step_coefficients, steps not chunked."""
    eye = np.eye(nodes.shape[-1])

    def times(X, c):
        out = np.zeros((len(c) + 1,) + mids.shape)
        out[:-1] = X @ c
        out[1:] += D @ c
        return out

    def one_plus(s, c):
        c = s * c
        c[0] += eye
        return c

    A = np.stack([nodes[:-1], np.broadcast_to(D, mids.shape)])
    C = np.zeros((5,) + mids.shape)
    C[:2] = A
    K = times(mids, one_plus(0.5 * h, A))
    C[:3] += 2.0 * K
    K = times(mids, one_plus(0.5 * h, K))
    C[:4] += 2.0 * K
    C += times(nodes[1:], one_plus(h, K))
    C *= h / 6.0
    C[0] += eye
    return C


def _samples(S, steps):
    """J S_i(t) at the step ends and midpoints, one block per power of lambda."""
    J = standard_J(S.n)
    ts = np.linspace(0.0, 1.0, steps + 1)
    return J @ S.lambda_coefficients(ts), J @ S.lambda_coefficients(ts[:-1] + 0.5 / steps)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("steps", [100, 256])
def test_coefficient_table_matches_each_lambda(n, steps):
    # the table's coefficients at a lambda agree with the stage formulas run
    # on samples of S at that lambda, for every degree in lambda and t
    J = standard_J(n)
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    rng = np.random.default_rng(100 * n + steps)
    for deg_l in range(5):
        for deg_t in range(5):
            S = random_symmetric_family(rng, n, deg_l, deg_t, 2.0)
            T = rk4_step_coefficients(*_samples(S, steps), h)
            assert [len(Tj) for Tj in T] == [(4 - j) * deg_l + 1 for j in range(5)]
            for lam in rng.uniform(size=3):
                ref = _one_lambda_coefficients(J @ S(lam, ts), J @ S(lam, ts[:-1] + 0.5 * h), h, -J)
                for Tj, Cj in zip(T, ref):
                    got = np.tensordot(lam ** np.arange(len(Tj)), Tj, axes=1)
                    assert _rel(got, Cj) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coefficient_table_of_one_block_is_the_per_lambda_build_bit_for_bit(n):
    # a family constant in lambda: every T[j] is one block, built by the same
    # stage formulas in the same order as at one lambda, steps chunked or not
    S = random_symmetric_family(np.random.default_rng(n), n, 0, 3, 2.0)
    nodes, mids = _samples(S, 100)
    T = rk4_step_coefficients(nodes, mids, 0.01)
    ref = _one_lambda_coefficients(nodes[0], mids[0], 0.01, -standard_J(n))
    assert all(len(Tj) == 1 for Tj in T)
    assert np.array_equal(np.stack([Tj[0] for Tj in T]), ref)


@pytest.mark.parametrize("deg_l", [0, 2])
def test_slice_coefficients_do_not_depend_on_the_stack(deg_l):
    # each lambda's coefficients come from products with one row each, so a
    # lambda's are the same bits alone and in stacks of any size
    n = 2
    S = random_symmetric_family(np.random.default_rng(9), n, deg_l, 2, 2.0)
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), S)
    lams = np.random.default_rng(10).uniform(size=33)
    alone = np.stack([fam._build(lams[k : k + 1]).coeff[0] for k in range(33)])
    for m in (2, 16, 33):
        assert np.array_equal(fam._build(lams[:m]).coeff, alone[:m])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [65, 100, 255, 257])
def test_shooting_batch_against_solve_ivp(n, steps):
    # BoundaryValueFamily shoots from the coefficients of its lambda slice,
    # an odd last step propagated alone; |mu| stays in the range the error
    # bound was set for
    S = _family(n, seed=50 + n)
    J = standard_J(n)
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), S, steps=steps)
    lam = 0.25
    mus = np.array([-2.9, -0.3, 1.1, 2.7])
    for mu, Phi in zip(mus, _transfer_stack(fam, lam, mus)):
        K = lambda t: J @ S(lam, t) - mu * J  # noqa: E731
        assert _rel(Phi, _solve_ivp_flow(K, 2 * n, [1.0])[-1]) < _rk4_bound(steps)
        assert _rel(Phi, _loop_rk4(K, 2 * n, steps)[-1]) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [100, 257])
def test_fundamental_solution_against_solve_ivp_and_loop(n, steps):
    S = _family(n, seed=20 + n)
    J = standard_J(n)
    lam = 0.35
    K = lambda t: J @ S(lam, t)  # noqa: E731
    sol = fundamental_solution(S, lam, steps=steps)
    exact = _solve_ivp_flow(K, 2 * n, sol.ts)
    assert _rel(sol.mats, exact) < _rk4_bound(steps)
    assert _rel(sol.mats, _loop_rk4(K, 2 * n, steps)) < 1e-13
    assert np.array_equal(sol.mats[0], np.eye(2 * n))


@pytest.mark.parametrize("n", [1, 2])
def test_fundamental_solution_off_grid_against_solve_ivp(n):
    S = _family(n, seed=30 + n)
    J = standard_J(n)
    lam = 0.9
    sol = fundamental_solution(S, lam, steps=100)
    ts = np.array([0.0037, 0.25, 0.5013, 0.777, 0.9999])
    exact = _solve_ivp_flow(lambda t: J @ S(lam, t), 2 * n, ts)
    for t, ref in zip(ts, exact):
        assert _rel(sol.at(float(t)), ref) < _rk4_bound(100)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fundamental_solution_steps_are_the_tables_mu0_rows(n):
    # the fundamental solution's step propagators are the unpaired mu^0
    # coefficients of the shooting's steps, one row product per lambda as
    # BoundaryValueFamily._build forms them, and they stay within rounding
    # of the stage formulas run on samples of S at that lambda
    rng = np.random.default_rng(50 + n)
    S = random_symmetric_family(rng, n, 2, 3, 2.0)
    steps = 100
    J = standard_J(n)
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    lams = np.concatenate([[0.0, 1.0], rng.uniform(size=4)])
    sol = fundamental_solution(S, lams, steps)
    T0 = specflow._coefficient_table(S, steps)[0]
    for lam, props in zip(lams, sol.props):
        row = (lam ** np.arange(len(T0), dtype=float)) @ T0.reshape(len(T0), -1)
        assert np.array_equal(props, row.reshape(props.shape))
        direct = rk4_step_propagators(J @ S(lam, ts), J @ S(lam, ts[:-1] + 0.5 * h), h)
        assert _rel(props, direct) < 1e-13


def test_fundamental_solution_evaluates_no_s(monkeypatch):
    # a t-dependent fundamental solution reads its steps off the family's
    # one coefficient table, built once and then shared, and samples S never
    S = random_symmetric_family(np.random.default_rng(8), 2, 2, 2, 2.0)
    builds, evals = [], []
    table = specflow.rk4_step_coefficients
    monkeypatch.setattr(specflow, "rk4_step_coefficients", lambda *args: builds.append(1) or table(*args))
    call = SymmetricFamily.__call__
    monkeypatch.setattr(SymmetricFamily, "__call__", lambda self, *args: evals.append(1) or call(self, *args))
    for lam in (0.4, np.array([0.0, 0.5, 1.0])):
        assert np.isfinite(fundamental_solution(S, lam, steps=128).end()).all()
    assert len(builds) == 1 and specflow._table[0]() is S and not evals


@pytest.mark.parametrize("identity", [clm_hamiltonian, three_term_identity])
def test_identities_build_one_coefficient_table(monkeypatch, identity):
    # the spectral flow and the fundamental solutions of the Maslov terms
    # take their RK4 steps from one table
    builds = []
    table = specflow.rk4_step_coefficients
    monkeypatch.setattr(specflow, "rk4_step_coefficients", lambda *args: builds.append(1) or table(*args))
    rng = np.random.default_rng(14)
    g1, g2 = random_pair(rng, 1)
    rep = identity(random_symmetric_family(rng, 1, 1, 2, 1.5), g1, g2, steps=128)
    assert rep.passed and len(builds) == 1


def test_fundamental_solution_constant_scan_matches_powers():
    n = 2
    rng = np.random.default_rng(4)
    G = rng.normal(size=(2 * n, 2 * n))
    S = SymmetricFamily((G + G.T)[None, None] * 0.5)
    sol = fundamental_solution(S, 0.0, steps=100)
    E = scipy.linalg.expm(0.01 * standard_J(n) @ S(0.0, 0.0))
    Psi = np.eye(2 * n)
    for k in range(101):
        assert _rel(sol.mats[k], Psi) < 1e-13
        Psi = E @ Psi


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 13, 16, 33])
def test_products_match_sequential_order(length):
    rng = np.random.default_rng(length)
    P = np.eye(3) + 0.3 * rng.normal(size=(length, 3, 3))
    X = np.eye(3)
    prefix = []
    for k in range(length):
        X = P[k] @ X
        prefix.append(X)
    assert _rel(ordered_product(P), X) < 1e-14
    assert _rel(prefix_products(P), np.array(prefix)) < 1e-14


def test_transfer_batch_independent_of_batch_size():
    # mu values are propagated in chunks; a batch must equal its single rows
    n = 2
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), _family(n, seed=5))
    mus = np.linspace(-4.0, 4.0, 11)
    batch = _transfer_stack(fam, 0.6, mus)
    for mu, Phi in zip(mus, batch):
        assert _rel(Phi, fam.transfer(0.6, mu)) < 1e-14


def _lambda_coefficients(S, steps, lam):
    """The mu-coefficients (5, steps, 2n, 2n) of the RK4 steps of
    J S(lam, t) - mu J, read off the family's table at lam."""
    T = rk4_step_coefficients(*_samples(S, steps), 1.0 / steps)
    return np.stack([np.tensordot(lam ** np.arange(len(Tj)), Tj, axes=1) for Tj in T])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("steps", [16, 17, 255, 256])
def test_paired_steps_equal_the_sequential_product(n, steps):
    # the paired polynomial at mu is P_{2k+1}(mu) P_{2k}(mu), and an odd last
    # step is kept alone with its higher coefficients zero
    S = random_symmetric_family(np.random.default_rng(7 * n + steps), n, 2, 2, 2.0)
    C = _lambda_coefficients(S, steps, 0.63)
    pairs = paired_steps(C)
    M = steps // 2
    assert pairs.shape == (9, (steps + 1) // 2, 2 * n, 2 * n)
    mus = np.random.default_rng(steps).uniform(-12.0, 12.0, size=5)
    P, Q = rk4_steps_at(C, mus), rk4_steps_at(pairs, mus)
    assert _rel(Q[:, :M], P[:, 1 : 2 * M : 2] @ P[:, 0 : 2 * M : 2]) < 1e-14
    if steps % 2:
        assert np.array_equal(pairs[:5, M], C[:, -1]) and not pairs[5:, M].any()
        assert _rel(Q[:, M], P[:, -1]) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("steps", [16, 17, 255, 256])
def test_paired_steps_are_the_defining_sum_bit_for_bit(n, steps):
    # the products with the constant mu^4 coefficient are taken as scalar
    # multiples, yet each paired coefficient is the sum of matrix products
    # added from zero in ascending a, to the bit and the sign of zero
    S = random_symmetric_family(np.random.default_rng(7 * n + steps), n, 2, 2, 2.0)
    C = _lambda_coefficients(S, steps, 0.63)
    M = steps // 2
    ref = np.zeros((9, M) + C.shape[2:])
    for k in range(M):
        for c in range(9):
            for a in range(max(0, c - 4), min(c, 4) + 1):
                ref[c, k] += C[a, 2 * k + 1] @ C[c - a, 2 * k]
    pairs = paired_steps(C)[:, :M]
    assert np.array_equal(pairs, ref) and np.array_equal(np.signbit(pairs), np.signbit(ref))


def test_paired_rows_do_not_depend_on_the_batch():
    # one mu is evaluated as a row of a batch, so each row of the steps and
    # of the transfer matrices is the same bits in batches of 1 to 16 rows
    n = 2
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), _family(n, seed=5))
    C = fam._build(np.array([0.6])).coeff
    mus = np.random.default_rng(11).uniform(-6.0, 6.0, size=16)
    at = np.zeros(16, dtype=int)
    steps = rk4_steps_at(C[0], mus)
    Phi = specflow._rk4_transfer_batch(C, mus, at)
    for m in range(1, 17):
        for s in (0, 16 - m):
            rows = slice(s, s + m)
            assert np.array_equal(rk4_steps_at(C[0], mus[rows]), steps[rows])
            assert np.array_equal(specflow._rk4_transfer_batch(C, mus[rows], at[rows]), Phi[rows])


def test_transfer_batch_expm_branch_matches_per_mu():
    n = 2
    wall = ConstantPath(l1_frame(n))
    coeffs = np.zeros((2, 1, 2 * n, 2 * n))
    coeffs[1, 0] = 5.0 * np.eye(2 * n)
    fam = BoundaryValueFamily(wall, wall, SymmetricFamily(coeffs))
    # K0 - mu J = (4 - mu) J at lambda = 0.8, and exp(theta J) is the
    # rotation cos(theta) I + sin(theta) J
    mus = np.linspace(-11.0, 11.0, 9)
    J = standard_J(n)
    for mu, Phi in zip(mus, _transfer_stack(fam, 0.8, mus)):
        theta = 4.0 - mu
        assert _rel(Phi, np.cos(theta) * np.eye(2 * n) + np.sin(theta) * J) < 1e-14


def test_expm_stack_matrices_do_not_depend_on_the_stack():
    # 1-norms from 1e-3 to 40, so the scaling power runs from 0 to 3 within
    # the stack: each matrix is the same bits alone and in any sub-stack
    rng = np.random.default_rng(12)
    A = rng.normal(size=(24, 4, 4))
    A *= (np.geomspace(1e-3, 40.0, 24) / np.abs(A).sum(axis=1).max(axis=1))[:, None, None]
    X = expm_stack(A)
    for i in range(len(A)):
        assert np.array_equal(X[i], expm_stack(A[i : i + 1])[0])
    for part in (slice(3, 17), slice(None, None, 3), slice(None, None, -1)):
        assert np.array_equal(X[part], expm_stack(A[part]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expm_stack_of_a_rotation_generator(n):
    # exp(theta J) = cos(theta) I + sin(theta) J; squaring a large |theta| in
    # from theta_13 costs about |theta| eps
    J = standard_J(n)
    theta = np.concatenate([np.geomspace(1e-3, 1e3, 31), -np.geomspace(1e-3, 1e3, 31), [0.0]])
    exact = np.cos(theta)[:, None, None] * np.eye(2 * n) + np.sin(theta)[:, None, None] * J
    err = np.max(np.abs(expm_stack(theta[:, None, None] * J) - exact), axis=(1, 2))
    assert np.all(err < 1e-15 * np.maximum(1.0, np.abs(theta)))


def test_expm_stack_of_a_hyperbolic_and_a_nilpotent_generator():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = np.array([1e-3, 0.5, -0.5, 3.0, -3.0, 10.0, -10.0, 30.0, -30.0])
    exact = np.cosh(t)[:, None, None] * np.eye(2) + np.sinh(t)[:, None, None] * X
    for E, ref in zip(expm_stack(t[:, None, None] * X), exact):
        assert _rel(E, ref) < 1e-13
    # strictly upper triangular 3x3: N^3 = 0, so exp(N) = I + N + N^2 / 2
    N = np.triu(np.random.default_rng(3).normal(size=(20, 3, 3)), 1)
    N *= np.geomspace(1e-3, 40.0, 20)[:, None, None]
    for E, Nk in zip(expm_stack(N), N):
        assert _rel(E, np.eye(3) + Nk + Nk @ Nk / 2.0) < 1e-14


def test_expm_stack_agrees_with_scipy_on_hamiltonian_matrices():
    # J S for 200 random symmetric S, 1-norms up to about 9: the largest
    # relative 2-norm difference from scipy is 1.3e-13, most are below 1e-15
    rng = np.random.default_rng(7)
    for k in range(200):
        n = 1 + k % 3
        H = standard_J(n) @ random_symmetric(rng, 2 * n, 1.0)
        ref = scipy.linalg.expm(H)
        assert np.linalg.norm(expm_stack(H[None])[0] - ref, 2) < 5e-13 * np.linalg.norm(ref, 2)


def test_expm_stack_of_an_empty_stack():
    assert expm_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def _raise(*args, **kwargs):
    raise AssertionError("this pipeline must not call this exponential")


@pytest.mark.parametrize("n", [1, 2])
def test_shooting_does_not_call_scipy_expm(monkeypatch, n):
    # t-independent shooting runs on expm_stack alone
    monkeypatch.setattr(scipy.linalg, "expm", _raise)
    wall = ConstantPath(l1_frame(n))
    coeffs = np.zeros((2, 1, 2 * n, 2 * n))
    coeffs[1, 0] = 5.0 * np.eye(2 * n)
    walls = BoundaryValueFamily(wall, wall, SymmetricFamily(coeffs))
    S = random_symmetric_family(np.random.default_rng(n), n, 2, 0, 2.0)
    for fam in (walls, BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), S)):
        assert fam.S.t_independent()
        assert spectrum_window(fam, np.array([0.1, 0.7]), -3.0, 3.0)[0].eigenvalues
        assert np.isfinite(fam.transfer(0.4, 1.3)).all()


def test_maslov_side_does_not_call_expm_stack(monkeypatch):
    # symplectic actions and t-independent fundamental solutions keep scipy's expm
    monkeypatch.setattr(propagator, "expm_stack", _raise)
    monkeypatch.setattr(specflow, "expm_stack", _raise)
    rng = np.random.default_rng(5)
    for n in (1, 2):
        g1 = SymplecticActionPath(random_action(rng, n), random_lagrangian_frame(rng, n))
        g2 = SymplecticActionPath(random_action(rng, n), random_lagrangian_frame(rng, n))
        assert isinstance(maslov_pair(g1, g2), int)
        S = random_symmetric_family(rng, n, 1, 0, 2.0)
        assert np.isfinite(fundamental_solution(S, 0.3, steps=64).end()).all()
