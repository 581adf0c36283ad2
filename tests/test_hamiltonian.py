"""Tests for fundamental solutions and the Hamiltonian spectral-flow identities."""

import inspect
import math

import numpy as np
import pytest
import scipy.linalg

from maslovflow import (
    ConstantPath,
    EigenvalueCountMismatch,
    PiecewiseLinear,
    RotatedPath,
    SymmetricFamily,
    alpha_beta_identity,
    clm_hamiltonian,
    fundamental_solution,
    gamma_nor,
    l1_frame,
    maslov_pair,
    morse_index_formula,
    standard_J,
    three_term_identity,
    transported_path,
)
from maslovflow import hamiltonian
from maslovflow.maslov import DEFAULT_TOL
from maslovflow.specflow import MAX_DEPTH, MU_TOL, spectral_flow
from maslovflow.propagator import ordered_product, rk4_step_propagators
from maslovflow.suites import random_pair, random_symmetric, random_symmetric_family


def test_symmetric_family_exact_symmetry_and_eval():
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(3, 2, 4, 4))
    fam = SymmetricFamily(coeffs)
    for lam, t in ((0.0, 0.0), (0.3, 0.8), (1.0, 1.0)):
        M = fam(lam, t)
        assert np.array_equal(M, M.T)  # bitwise symmetric
    # evaluation matches the upper-triangle mirrored polynomial
    U = np.triu(coeffs[1, 1]) + np.triu(coeffs[1, 1], 1).T
    direct = sum(
        (np.triu(coeffs[j, k]) + np.triu(coeffs[j, k], 1).T) * 0.3**j * 0.8**k
        for j in range(3)
        for k in range(2)
    )
    assert np.allclose(fam(0.3, 0.8), direct, atol=1e-14)
    assert U is not None


def test_symmetric_family_degree_cap():
    with pytest.raises(ValueError, match="degree"):
        SymmetricFamily(np.zeros((6, 1, 2, 2)))


def test_symmetric_family_shift_and_zero():
    fam = SymmetricFamily.zero(1)
    assert fam.is_zero() and fam.t_independent()
    shifted = fam.shifted(0.25)
    assert np.allclose(shifted(0.5, 0.5), 0.25 * np.eye(2), atol=1e-15)


def test_fundamental_solution_zero_family():
    sol = fundamental_solution(SymmetricFamily.zero(2), 0.3)
    assert np.allclose(sol.end(), np.eye(4), atol=1e-14)
    assert np.allclose(sol.at(0.62), np.eye(4), atol=1e-14)


def test_fundamental_solution_rotation_pin():
    # S = delta0 I integrates to the rotation exp(delta0 J t); this example
    # pins the sign convention of the flow equation
    delta0 = 0.3
    S = SymmetricFamily.constant(delta0 * np.eye(2))
    sol = fundamental_solution(S, 0.0)
    J = standard_J(1)
    for t in (0.25, 0.37, 1.0):
        assert np.linalg.norm(sol.at(t) - scipy.linalg.expm(delta0 * t * J), 2) < 1e-12


def test_fundamental_solution_symplectic_and_converged():
    rng = np.random.default_rng(1)
    S = random_symmetric_family(rng, 1, 2, 2, 2.5)
    J = standard_J(1)
    sol_a = fundamental_solution(S, 0.4, steps=128)
    sol_b = fundamental_solution(S, 0.4, steps=256)
    # oracle: step halving
    assert np.linalg.norm(sol_a.end() - sol_b.end(), 2) < 1e-9
    assert np.linalg.norm(sol_b.end().T @ J @ sol_b.end() - J, 2) < 1e-8
    # off-grid evaluation is consistent with the stored grid
    t = sol_b.ts[100]
    assert np.linalg.norm(sol_b.at(float(t)) - sol_b.mats[100], 2) == 0.0
    mid = float(t) + 0.5 / 256
    ref = fundamental_solution(S, 0.4, steps=512).at(mid)
    assert np.linalg.norm(sol_b.at(mid) - ref, 2) < 1e-9


def test_fundamental_solution_drift_error():
    # a large genuinely t-dependent family at few steps must fail loudly
    coeffs = np.zeros((1, 2, 2, 2))
    coeffs[0, 0] = 18.0 * np.eye(2)
    coeffs[0, 1] = np.array([[9.0, 4.0], [4.0, -9.0]])
    with pytest.raises(ValueError, match="increase steps"):
        fundamental_solution(SymmetricFamily(coeffs), 0.0, steps=64)


def test_fundamental_solution_drift_error_names_the_first_failing_lambda():
    # S = (1 - lambda) times the family above: at 64 steps the drift passes
    # the bound at lambda >= 0.7 only, so in a stack it first fails at 0.3
    coeffs = np.zeros((2, 2, 2, 2))
    coeffs[0, 0] = 18.0 * np.eye(2)
    coeffs[0, 1] = np.array([[9.0, 4.0], [4.0, -9.0]])
    coeffs[1] = -coeffs[0]
    S = SymmetricFamily(coeffs)
    assert fundamental_solution(S, np.array([1.0, 0.9, 0.7]), steps=64).mats.shape == (3, 65, 2, 2)
    with pytest.raises(ValueError, match=r"at lambda=0\.3 exceeds 1e-06; increase steps"):
        fundamental_solution(S, np.array([1.0, 0.9, 0.3, 0.0]), steps=64)
    with pytest.raises(ValueError, match=r"at lambda=0 exceeds"):
        fundamental_solution(S, 0.0, steps=64)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("deg_t", [0, 2])
def test_stacked_fundamental_solution_matches_each_lambda(n, deg_t):
    # every matrix of the stacked solution is bit for bit that of its lambda
    # alone, for t-independent (exact exponential step) and t-dependent S
    rng = np.random.default_rng(10 * n + deg_t)
    S = random_symmetric_family(rng, n, 2, deg_t, 2.0)
    lams = np.concatenate([[0.0, 1.0], rng.uniform(size=9)])
    sol = fundamental_solution(S, lams, steps=128)
    assert sol.mats.shape == (lams.size, 129, 2 * n, 2 * n) and sol.n == n
    ends = np.array([fundamental_solution(S, lam, steps=128).end() for lam in lams])
    assert np.array_equal(sol.end(), ends)


@pytest.mark.parametrize("steps", [64, 100, 128, 256, 300, 512])
@pytest.mark.parametrize("deg_t", [0, 2])
def test_fundamental_solution_end_is_the_last_node_of_the_trajectory(steps, deg_t):
    # Psi(1/2) and Psi(1) are products of the two halves of the steps, the
    # trajectory a prefix scan formed only when read; on a power of two the
    # halves multiply in the scan's own order, so the ends agree bit for bit
    S = random_symmetric_family(np.random.default_rng(steps), 2, 2, deg_t, 2.0)
    sol = fundamental_solution(S, np.array([0.0, 0.3, 1.0]), steps)
    assert "mats" not in vars(sol)
    half, end = sol.mats[:, steps // 2], sol.mats[:, -1]
    if steps & (steps - 1) == 0:
        assert np.array_equal(sol.ends[:, 0], half) and np.array_equal(sol.end(), end)
    else:
        assert np.abs(sol.ends[:, 0] - half).max() < 1e-13 * np.abs(half).max()
        assert np.abs(sol.end() - end).max() < 1e-13 * np.abs(end).max()


@pytest.mark.parametrize("deg_t", [0, 2])
def test_fundamental_solution_at_an_array_of_times(deg_t):
    S = random_symmetric_family(np.random.default_rng(7), 2, 2, deg_t, 2.0)
    sol = fundamental_solution(S, 0.37, steps=128)
    rng = np.random.default_rng(8)
    ts = np.concatenate([sol.ts[::9], rng.uniform(size=40), [1.0, 0.0, 0.5 + 0.25 / 128]])
    got = sol.at(ts)
    assert got.shape == (ts.size, 4, 4)
    assert np.array_equal(got, np.stack([sol.at(t) for t in ts]))
    assert np.array_equal(sol.at(ts.reshape(-1, 2)), got.reshape(-1, 2, 4, 4))
    if deg_t:  # RK4 grid nodes are read off the grid (t-independent S uses expm)
        assert np.array_equal(sol.at(sol.ts), sol.mats)
        # against the loop form, nine scalar samples of S per time: sampling
        # S on a time array rounds apart by a few ulps at most
        h = sol.ts[1]
        for t, Psi in zip(ts, got):
            k = min(int(np.floor(t / h + 1e-12)), 128)
            sub = (t - sol.ts[k]) / 4.0
            samples = np.array([sol.coeff_fn(s) for s in sol.ts[k] + 0.5 * sub * np.arange(9)])
            ref = ordered_product(rk4_step_propagators(samples[::2], samples[1::2], sub)) @ sol.mats[k]
            assert np.abs(Psi - ref).max() <= 64 * np.finfo(float).eps * np.abs(ref).max()
    with pytest.raises(ValueError, match="outside"):
        sol.at(np.array([0.5, 1.5]))


def test_fundamental_solution_at_rejects_a_stacked_solution():
    sol = fundamental_solution(SymmetricFamily.zero(1), np.array([0.2, 0.4]))
    with pytest.raises(ValueError, match="one lambda"):
        sol.at(0.5)


def test_transported_path_solves_stacks_of_lambdas(monkeypatch):
    # one fundamental solution per stack of at most 16 new lambdas, not per
    # lambda, and the frames do not depend on how the lambdas are stacked
    S = random_symmetric_family(np.random.default_rng(4), 2, 2, 1, 2.0)
    sizes = []
    solve = hamiltonian.fundamental_solution
    monkeypatch.setattr(hamiltonian, "fundamental_solution",
                        lambda S, lams, steps: sizes.append(np.size(lams)) or solve(S, lams, steps))
    g = transported_path(S, gamma_nor(2), steps=64)
    for m in (1, 16, 17, 40):
        sizes.clear()
        lams = np.random.default_rng(m).uniform(size=m)
        F = g.frames(lams)
        assert len(sizes) == math.ceil(m / 16) and sum(sizes) == m
        assert np.array_equal(F, transported_path(S, gamma_nor(2), steps=64).frames(lams[::-1])[::-1])


def test_fundamental_solution_rejects_few_steps():
    with pytest.raises(ValueError, match="steps"):
        fundamental_solution(SymmetricFamily.zero(1), 0.0, steps=32)


def test_transported_endpoint_continuity_cauchy_ladder():
    # Psi_lambda(1) is Lipschitz in lambda: the largest increment over a
    # lambda grid must shrink by about the halving factor per refinement
    rng = np.random.default_rng(13)
    S = random_symmetric_family(rng, 1, 2, 1, 2.0)

    def max_increment(npts):
        lams = np.linspace(0.0, 1.0, npts)
        mats = [fundamental_solution(S, lam).end() for lam in lams]
        return max(
            np.linalg.norm(b - a, 2) for a, b in zip(mats[:-1], mats[1:])
        )

    e8, e16, e32 = max_increment(9), max_increment(17), max_increment(33)
    assert e16 <= e8 / 1.8
    assert e32 <= e16 / 1.8


def test_cocycle_for_constant_coefficients():
    K = random_symmetric(np.random.default_rng(2), 2, 1.2)
    S = SymmetricFamily.constant(K)
    sol = fundamental_solution(S, 0.0)
    D = standard_J(1) @ K
    for s, t in ((0.3, 0.4), (0.5, 0.25)):
        lhs = sol.at(s + t)
        assert np.linalg.norm(lhs - scipy.linalg.expm((s + t) * D), 2) < 1e-10
        assert np.linalg.norm(lhs - sol.at(s) @ sol.at(t), 2) < 1e-8


def test_clm_reduces_to_plain_theorem_for_zero_family():
    g1, g2 = random_pair(np.random.default_rng(3), 1)
    rep = clm_hamiltonian(SymmetricFamily.zero(1), g1, g2)
    assert rep.passed
    assert rep.values["maslov_transported"] == maslov_pair(g1, g2)


def test_clm_constant_family_matches_rotated_path():
    # S = delta I transports gamma_1 by the rotation exp(delta J); both sides
    # are computed by independent code paths
    delta = 0.3
    S = SymmetricFamily.constant(delta * np.eye(2))
    g1 = gamma_nor(1)
    g2 = ConstantPath(l1_frame(1))
    rep = clm_hamiltonian(S, g1, g2)
    assert rep.passed
    assert rep.values["maslov_transported"] == maslov_pair(RotatedPath(g1, delta), g2)


def test_clm_randomized_small():
    rng = np.random.default_rng(4)
    for _ in range(3):
        n = 1 + int(rng.integers(0, 2))
        g1, g2 = random_pair(rng, n)
        S = random_symmetric_family(rng, n, 2, 1, 2.0)
        assert clm_hamiltonian(S, g1, g2).passed


def test_transported_path_is_lagrangian():
    rng = np.random.default_rng(5)
    S = random_symmetric_family(rng, 1, 2, 2, 2.0)
    path = transported_path(S, gamma_nor(1))
    for lam in (0.0, 0.4, 1.0):
        F = path.frame(lam)
        assert F.n == 1  # construction revalidates the invariants


def test_three_term_zero_family_edges_vanish():
    g1, g2 = random_pair(np.random.default_rng(6), 1)
    rep = three_term_identity(SymmetricFamily.zero(1), g1, g2)
    assert rep.passed
    assert rep.values["term_end"] == 0 and rep.values["term_start"] == 0


def test_three_term_randomized():
    rng = np.random.default_rng(7)
    g1, g2 = random_pair(rng, 1)
    S = random_symmetric_family(rng, 1, 2, 1, 1.5)
    rep = three_term_identity(S, g1, g2)
    assert rep.passed
    assert rep.values["spectral_flow"] == (
        rep.values["term_end"] + rep.values["term_pair"] - rep.values["term_start"]
    )


def test_alpha_beta_constraint_validation():
    S = SymmetricFamily.zero(1)
    g1, g2 = random_pair(np.random.default_rng(8), 1)
    alpha = PiecewiseLinear([0.0, 1.0], [0.3, 0.0])
    bad_beta = PiecewiseLinear([0.0, 1.0], [0.2, 1.0])
    with pytest.raises(ValueError, match="breakpoint"):
        alpha_beta_identity(S, g1, g2, alpha, bad_beta)


def test_alpha_beta_degenerate_reparametrization_matches_three_term():
    # alpha = 0, beta = lambda: the reparametrized terms coincide with the
    # three-term corollary on the same data
    rng = np.random.default_rng(9)
    g1, g2 = random_pair(rng, 1)
    S = random_symmetric_family(rng, 1, 1, 1, 1.5)
    alpha = PiecewiseLinear([0.0, 1.0], [0.0, 0.0])
    beta = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
    rep = alpha_beta_identity(S, g1, g2, alpha, beta)
    oracle = three_term_identity(S, g1, g2)
    assert rep.passed and oracle.passed
    assert rep.values["spectral_flow"] == oracle.values["spectral_flow"]


def test_alpha_beta_tent_profile():
    rng = np.random.default_rng(10)
    g1, g2 = random_pair(rng, 1)
    S = random_symmetric_family(rng, 1, 1, 1, 1.5)
    alpha = PiecewiseLinear([0.0, 1.0], [0.5, 0.0])
    beta = PiecewiseLinear([0.0, 1.0], [0.5, 1.0])
    assert alpha_beta_identity(S, g1, g2, alpha, beta).passed


def test_alpha_beta_zero_family_reduces_to_plain_theorem():
    g1, g2 = random_pair(np.random.default_rng(11), 1)
    alpha = PiecewiseLinear([0.0, 1.0], [0.25, 0.0])
    beta = PiecewiseLinear([0.0, 1.0], [0.25, 1.0])
    rep = alpha_beta_identity(SymmetricFamily.zero(1), g1, g2, alpha, beta)
    assert rep.passed
    assert rep.values["spectral_flow"] == maslov_pair(g1, g2)


def test_morse_zero_family():
    rep = morse_index_formula(SymmetricFamily.zero(1))
    assert rep.passed
    assert rep.values["spectral_flow"] == 0


def _dirichlet_ramp_oracle(c: float) -> int:
    # spectrum of the ramp family is {lambda c + k pi}; branches k <= -1
    # cross zero upward exactly when k pi < c
    return sum(1 for k in range(1, 64) if k * np.pi < c)


@pytest.mark.parametrize("c", [5.0, 15.0, 30.0])
def test_morse_dirichlet_ramp(c):
    coeffs = np.zeros((2, 1, 2, 2))
    coeffs[1, 0] = c * np.eye(2)
    rep = morse_index_formula(SymmetricFamily(coeffs))
    assert rep.passed
    assert rep.values["spectral_flow"] == _dirichlet_ramp_oracle(c)


def test_morse_randomized_degree_one():
    rng = np.random.default_rng(12)
    for _ in range(2):
        S = random_symmetric_family(rng, 1, 1, 1, 2.5)
        assert morse_index_formula(S).passed


def test_identity_checkers_run_one_spectral_flow_and_each_term_at_each_sides_default_tol(monkeypatch):
    # called without tol, as the suites call them, every checker runs
    # spectral_flow once and then maslov_pair once per term, each at its own
    # default tolerance and all with max_depth
    assert inspect.signature(spectral_flow).parameters["tol"].default == MU_TOL == 1e-10
    assert inspect.signature(maslov_pair).parameters["tol"].default == DEFAULT_TOL == 1e-8
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append((fn.__name__, "tol" in kwargs, kwargs.get("max_depth")))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("spectral_flow", "maslov_pair"):
        monkeypatch.setattr(hamiltonian, name, spy(getattr(hamiltonian, name)))
    g1, g2 = random_pair(np.random.default_rng(13), 1)
    S = SymmetricFamily.constant(0.3 * np.eye(2))
    alpha = PiecewiseLinear([0.0, 1.0], [0.25, 0.0])
    beta = PiecewiseLinear([0.0, 1.0], [0.25, 1.0])
    terms = ["term_end", "term_pair", "term_start"]
    cases = [
        (lambda: clm_hamiltonian(S, g1, g2), ["maslov_transported"]),
        (lambda: three_term_identity(S, g1, g2), terms),
        (lambda: alpha_beta_identity(S, g1, g2, alpha, beta), terms),
        (lambda: morse_index_formula(S), ["maslov_transported"]),
    ]
    for run, names in cases:
        calls.clear()
        report = run()
        expected = [("spectral_flow", False, MAX_DEPTH)] + [("maslov_pair", False, MAX_DEPTH)] * len(names)
        assert calls == expected
        rhs = ["rhs"] if len(names) > 1 else []
        assert sorted(report.values) == sorted(["spectral_flow"] + names + rhs)


@pytest.mark.xfail(
    strict=True,
    raises=(EigenvalueCountMismatch, AssertionError),
    reason="at sup norm 10 the window scan, whose step stops shrinking at s_norm = 3, finds the "
    "eigenvalue count parity at odds with the determinant at lambda = 0.9375",
)
def test_clm_hamiltonian_on_a_strong_t_dependent_family():
    # the 23rd draw of a loop over n = 1, 2, 3 and sup norms 3, 6, 10, 20
    rng = np.random.default_rng(7)
    for t in range(23):
        n = 1 + t % 3
        g1, g2 = random_pair(rng, n)
        S = random_symmetric_family(rng, n, 2, 2, (3.0, 6.0, 10.0, 20.0)[t % 4])
    assert clm_hamiltonian(S, g1, g2).passed
