"""Tests for fundamental solutions and the Hamiltonian spectral-flow identities."""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from maslovflow import (
    ConstantPath,
    EigenvalueCountMismatch,
    PiecewiseLinear,
    RotatedPath,
    SymmetricFamily,
    SymplecticActionPath,
    UnitaryDiagonalPath,
    alpha_beta_identity,
    clm_hamiltonian,
    fundamental_solution,
    gamma_nor,
    l1_frame,
    maslov_pair,
    morse_index_formula,
    standard_J,
    subspace_frame,
    three_term_identity,
    transported_path,
)
from maslovflow import hamiltonian, symplectic
from maslovflow.config import parse_config
from maslovflow.specflow import spectral_flow
from maslovflow.propagator import ordered_product, rk4_step_propagators
from maslovflow.suites import random_action, random_lagrangian_frame, random_pair, random_symmetric, random_symmetric_family
from maslovflow.symplectic import gap_distance, nearest_lagrangian_frames, souriau_stack


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_family_rounds_a_scalar_t_as_a_row_of_a_t_array(n):
    # a scalar t is evaluated as a row of a batch, so each matrix of S(lam, ts)
    # is the same bits as S at its t alone, at a scalar lambda and in a stack
    S = random_symmetric_family(np.random.default_rng(3), n, 2, 2, 3.0)
    ts = np.random.default_rng(n).uniform(0.0, 1.0, size=450)
    lams = np.array([0.0, 0.37, 1.0])
    stacked = S(lams, ts)
    for i, lam in enumerate(lams):
        batch = S(lam, ts)
        assert np.array_equal(batch, stacked[i])
        for k in range(len(ts)):
            assert np.array_equal(batch[k], S(lam, float(ts[k])))
        assert np.array_equal(S(lam, ts[:1])[0], batch[0])
    assert np.array_equal(S(lams, float(ts[7])), stacked[:, 7])
    assert S(lams, np.zeros((0, 2))).shape == (3, 0, 2, 2 * n, 2 * n)


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


def test_fundamental_solution_drift_within_bound_takes_no_svd(monkeypatch):
    # both ends of every lambda are decided by one within_each, whose
    # Frobenius norm accepts a drift far below the bound; a 2-norm is taken
    # only for the lambda an error names
    def _no_svd(*args):
        raise AssertionError("a drift within the bound takes no 2-norm")

    monkeypatch.setattr(hamiltonian, "norm2", _no_svd)
    monkeypatch.setattr(symplectic, "norm2", _no_svd)
    S = random_symmetric_family(np.random.default_rng(3), 2, 2, 2, 2.0)
    assert fundamental_solution(S, np.linspace(0.0, 1.0, 5), steps=128).ends.shape == (5, 2, 4, 4)


@pytest.mark.parametrize("size", [3e3, 2e4])
@pytest.mark.parametrize("lam", [0.5, np.array([0.5, 0.1])])
def test_fundamental_solution_rejects_a_drift_that_is_not_finite(size, lam):
    # at 3e3 Psi(1) is finite, with entries near 1e195, but its drift is nan;
    # at 2e4 the drift matrix itself is not finite.  Either way the first
    # such lambda is named, without an SVD of a non-finite matrix
    S = SymmetricFamily(np.random.default_rng(0).normal(size=(2, 2, 2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"drift nan at lambda=0\.5 exceeds 1e-06; increase steps"):
            fundamental_solution(S.scaled(size / S.sup_norm()), lam, steps=64)


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


def test_alpha_beta_a_rounding_below_0_reads_the_start_time():
    # validation accepts alpha and beta down to -1e-12; at t = -5e-13 the
    # node index floor(t / h + 1e-12) was -1, which reads Psi(1), so at
    # clips such times to 0 and the case counts as alpha(0) = 0 does
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "reparametrized_identity.json")
    alpha = PiecewiseLinear([0.0, 1.0], [-5e-13, 0.0])
    beta = PiecewiseLinear([0.0, 1.0], [-5e-13, 1.0])
    rep = alpha_beta_identity(cfg.family, cfg.path1(), cfg.path2(), alpha, beta, steps=cfg.solver.steps)
    expected = {"spectral_flow": 1, "term_start": 0, "term_pair": 1, "term_end": 0, "rhs": 1}
    assert rep.passed and {k: rep.values[k] for k in expected} == expected
    for lam in (0.0, 1.0):
        sol = fundamental_solution(cfg.family, lam, cfg.solver.steps)
        assert np.array_equal(sol.at(-5e-13), sol.at(0.0))
        assert np.array_equal(sol.at(1.0 + 5e-13), sol.at(1.0))
        with pytest.raises(ValueError, match="time -2e-12 outside"):
            sol.at(np.array([0.5, -2e-12]))


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


def test_identity_checkers_run_one_spectral_flow_at_tol_and_each_term_without_one(monkeypatch):
    # no checker takes an accuracy setting: every one runs spectral_flow once,
    # which locates at MU_TOL, and then maslov_pair, which takes no
    # tolerance, once per term, neither with a keyword argument
    assert list(inspect.signature(spectral_flow).parameters) == ["fam"]
    assert list(inspect.signature(maslov_pair).parameters) == ["g1", "g2"]
    for checker in (clm_hamiltonian, three_term_identity, alpha_beta_identity, morse_index_formula):
        assert not {"tol", "max_depth"} & set(inspect.signature(checker).parameters)
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append((fn.__name__, kwargs))
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
        (lambda: clm_hamiltonian(None, g1, g2), ["maslov_transported"]),
        (lambda: three_term_identity(S, g1, g2), terms),
        (lambda: alpha_beta_identity(S, g1, g2, alpha, beta), terms),
        (lambda: morse_index_formula(S), ["maslov_transported"]),
    ]
    for run, names in cases:
        calls.clear()
        report = run()
        expected = [("spectral_flow", {})] + [("maslov_pair", {})] * len(names)
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


def _closed_form_draws():
    """S = 0 unitary-diagonal pairs from one default_rng(11) stream, 12 at each
    n of 1, 2, 3, 6 and 8, as (n, gamma_1, gamma_2, closed form).  Plane j has
    the eigenvalues delta_j + k pi, delta_j = theta1_j - theta2_j, so
    sfl = mu = sum_j floor(delta_j(1) / pi) - floor(delta_j(0) / pi)."""
    rng = np.random.default_rng(11)
    draws = []
    for n in (1, 2, 3, 6, 8):
        for _ in range(12):
            phases = [PiecewiseLinear([0.0, 0.5, 1.0], rng.uniform(-2.5, 2.5, 3)) for _ in range(2 * n)]
            deltas = [(a(0.0) - b(0.0), a(1.0) - b(1.0)) for a, b in zip(phases[:n], phases[n:])]
            exact = sum(math.floor(d1 / np.pi) - math.floor(d0 / np.pi) for d0, d1 in deltas)
            draws.append((n, UnitaryDiagonalPath(phases[:n]), UnitaryDiagonalPath(phases[n:]), exact))
    return draws


def test_theorem_equals_the_closed_form_on_unitary_diagonal_pairs():
    for i, (n, g1, g2, exact) in enumerate(_closed_form_draws()[:48]):
        rep = clm_hamiltonian(None, g1, g2)
        assert rep.values == {"spectral_flow": exact, "maslov_transported": exact}, (n, i % 12)


def test_pair_index_equals_the_closed_form_on_unitary_diagonal_pairs_at_n_8():
    # the Maslov side of the n = 8 draws pinned below is right on every draw
    for n, g1, g2, exact in _closed_form_draws()[48:]:
        assert maslov_pair(g1, g2) == exact


def _fault(*args, reason, raises=AssertionError):
    """A parameter set pinned as a strict xfail with its own reason."""
    return pytest.param(*args, marks=pytest.mark.xfail(strict=True, raises=raises, reason=reason))


@pytest.mark.parametrize("k", [
    _fault(0, reason="spectral flow 4 against the closed form 5"),
    _fault(6, reason="spectral flow 5 against the closed form 4"),
    _fault(10, raises=RuntimeError, reason="spectral flow is partition dependent: 2 vs 1 at doubled resolution"),
])
def test_theorem_equals_the_closed_form_at_n_8(k):
    n, g1, g2, exact = _closed_form_draws()[48 + k]
    rep = clm_hamiltonian(None, g1, g2)
    assert rep.values == {"spectral_flow": exact, "maslov_transported": exact}


def _sup8_draw(n, k):
    """Draw k of default_rng(5000 + n): a random pair, then a degree-one
    family of sup norm 8, per draw."""
    rng = np.random.default_rng(5000 + n)
    for _ in range(k + 1):
        g1, g2 = random_pair(rng, n)
        S = random_symmetric_family(rng, n, 1, 1, 8.0)
    return S, g1, g2


@pytest.mark.parametrize("n, k, sfl", [
    _fault(1, 14, -1, reason="the transported term mu(Psi(1) gamma_1, gamma_2) gives 0 against -1"),
    _fault(2, 5, 2, reason="the transported term mu(Psi(1) gamma_1, gamma_2) gives 0 against 2"),
])
def test_transported_term_at_sup_norm_8(n, k, sfl):
    rep = clm_hamiltonian(*_sup8_draw(n, k))
    assert rep.values == {"spectral_flow": sfl, "maslov_transported": sfl}


@pytest.mark.parametrize("n, k", [(1, None), (2, None), (1, 14), (2, 5)],
                         ids=["action-n1", "action-n2", "sup8-n1-draw14", "sup8-n2-draw5"])
def test_action_frames_are_the_polar_projection_of_the_acted_basis(n, k):
    # SymplecticActionPath projects A F itself, with no QR first: its frames
    # must span A F, and their Souriau matrices equal those of the QR route,
    # up to rounding and the isotropy defect delta of span(A F) that RK4 drift
    # leaves: no Lagrangian frame is nearer than about delta / 2 to that span
    # (delta reaches 8.6e-12 on the n = 2 draw, below 1e-16 on the others)
    if k is None:
        rng = np.random.default_rng(n)
        path = SymplecticActionPath(random_action(rng, n), random_lagrangian_frame(rng, n))
    else:
        S, g1, _ = _sup8_draw(n, k)
        path = transported_path(S, g1, steps=256)
    lams = np.linspace(0.0, 1.0, 33)
    frames = path.frames(lams)
    B = path.matfun(lams) @ path.base.frames(lams)
    by_qr = souriau_stack(nearest_lagrangian_frames(np.linalg.qr(B)[0]))
    J = standard_J(n)
    for F, b, W in zip(frames, B, by_qr):
        Q = subspace_frame(b)
        bound = 1e-12 + 2.0 * np.abs(Q.T @ J @ Q).max()
        assert gap_distance(F, Q) <= bound
        assert np.abs(souriau_stack(F[None])[0] - W).max() <= bound


@pytest.mark.parametrize("n, k, sfl", [(1, 14, -1), (2, 5, 2)])
def test_three_term_identity_where_the_transported_term_fails(n, k, sfl):
    # the companion of the strict xfails above: the frozen-time t-edges give
    # the spectral flow on the same draws
    rep = three_term_identity(*_sup8_draw(n, k))
    assert rep.passed and rep.values["spectral_flow"] == rep.values["rhs"] == sfl
