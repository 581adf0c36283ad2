"""Fundamental solutions of linear Hamiltonian systems and spectral-flow identities.

The fundamental solution solves J Psi' + S_lambda(t) Psi = 0 with Psi(0) = I,
i.e. Psi' = J S_lambda(t) Psi (the sign is pinned by S = delta I giving
Psi(t) = exp(delta J t)).  It is fixed-step RK4 written as products of the
one-step propagators P_k (see propagator.py): every grid node Psi(t_k) =
P_{k-1} ... P_0 comes out of one inclusive prefix scan, doubling the offset
each round, so a whole trajectory costs log2(steps) batched products rather
than a loop over the steps.  The identity checkers compare the spectral flow of
the boundary-value family, computed by shooting, against Maslov indices of
paths transported by Psi, computed by eigenphase winding; the two sides share
nothing beyond the RK4 step propagators, which the tests check against an
independent integrator, and basic linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .families import SymmetricFamily
from .maslov import maslov_pair
from .paths import ConstantPath, LagrangianPath, PiecewiseLinear, SymplecticActionPath
from .propagator import ordered_product, prefix_products, rk4_step_propagators
from .reports import VerificationReport
from .specflow import BoundaryValueFamily, spectral_flow, DEFAULT_STEPS
from .symplectic import LagrangianFrame, l1_frame, standard_J

_DRIFT_ATOL = 1e-6


@dataclass(frozen=True)
class FundamentalSolution:
    """Psi_lambda sampled on a uniform t-grid, with Psi(0) = I exactly."""

    lam: float
    ts: np.ndarray
    mats: np.ndarray  # (steps + 1, 2n, 2n)
    coeff_fn: object  # t -> J S_lambda(t), exact coefficient of the flow
    generator: object = None  # constant J S_lambda when t-independent

    @property
    def n(self) -> int:
        return self.mats.shape[1] // 2

    def end(self) -> np.ndarray:
        return self.mats[-1]

    def at(self, t: float) -> np.ndarray:
        """Psi_lambda(t) at an arbitrary time, exact on grid nodes.

        Off-grid values integrate from the nearest lower node with four
        shortened RK4 steps, whose propagators are multiplied onto the node
        value, so evaluation stays deterministic.
        Constant-coefficient families use the matrix exponential directly.
        """
        t = float(t)
        if not 0.0 <= t <= 1.0 + 1e-12:
            raise ValueError(f"time {t} outside [0, 1]")
        if self.generator is not None:
            return scipy.linalg.expm(t * self.generator)
        h = self.ts[1] - self.ts[0]
        idx = min(int(np.floor(t / h + 1e-12)), len(self.ts) - 1)
        t0 = self.ts[idx]
        Psi = self.mats[idx]
        rem = t - t0
        if rem <= 1e-15:
            return Psi
        K = self.coeff_fn
        sub = rem / 4.0
        samples = np.array([K(s) for s in t0 + 0.5 * sub * np.arange(9)])
        return ordered_product(rk4_step_propagators(samples[::2], samples[1::2], sub)) @ Psi


def fundamental_solution(S: SymmetricFamily, lam: float, steps: int = DEFAULT_STEPS) -> FundamentalSolution:
    """Solve J Psi' + S_lambda(t) Psi = 0, Psi(0) = I, by fixed-step RK4.

    Every node value is a prefix product of the step propagators (for
    t-independent S, of the exact step exp(h J S)), formed by a log-depth scan.

    Raises when the symplecticity drift exceeds 1e-6, suggesting more steps.
    """
    if steps < 64:
        raise ValueError(f"steps must be at least 64, got {steps}")
    n = S.n
    J = standard_J(n)
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    mats = np.empty((steps + 1, 2 * n, 2 * n))
    mats[0] = np.eye(2 * n)
    if S.t_independent():
        # constant-coefficient system: exact one-step propagator, no drift
        D = J @ S(lam, 0.0)
        mats[1:] = prefix_products(np.broadcast_to(scipy.linalg.expm(h * D), (steps, 2 * n, 2 * n)))
        mats.setflags(write=False)
        return FundamentalSolution(float(lam), ts, mats, lambda t: D, generator=D)
    nodes = J @ S(lam, ts)
    mids = J @ S(lam, ts[:-1] + 0.5 * h)
    mats[1:] = prefix_products(rk4_step_propagators(nodes, mids, h))
    drift = max(
        np.linalg.norm(mats[i].T @ J @ mats[i] - J, 2) for i in (steps // 2, steps)
    )
    if drift > _DRIFT_ATOL:
        raise ValueError(
            f"symplecticity drift {drift:.3e} exceeds {_DRIFT_ATOL}; increase steps"
        )
    mats.setflags(write=False)
    return FundamentalSolution(float(lam), ts, mats, lambda t: J @ S(lam, t))


def transported_path(S: SymmetricFamily, gamma1: LagrangianPath, steps: int = DEFAULT_STEPS) -> LagrangianPath:
    """The path lambda -> Psi_lambda(1) gamma_1(lambda)."""
    return SymplecticActionPath(
        lambda lam: fundamental_solution(S, lam, steps).end(),
        gamma1,
        hints=gamma1.breakpoint_hints(),
    )


def frozen_time_path(S: SymmetricFamily, lam: float, base: LagrangianFrame, steps: int = DEFAULT_STEPS) -> LagrangianPath:
    """The path t -> Psi_lambda(t) L for frozen lambda."""
    sol = fundamental_solution(S, lam, steps)
    return SymplecticActionPath(sol.at, base)


def _symplectic_inverse(A: np.ndarray) -> np.ndarray:
    n = A.shape[0] // 2
    J = standard_J(n)
    return -J @ A.T @ J


def clm_hamiltonian(
    S: SymmetricFamily,
    gamma1: LagrangianPath,
    gamma2: LagrangianPath,
    steps: int = DEFAULT_STEPS,
    base_grid=None,
    check: bool = True,
) -> VerificationReport:
    """Spectral flow of Ju' + S_lambda u with boundary (gamma_1, gamma_2) versus
    the Maslov index of (Psi gamma_1, gamma_2).  Both integers are reported."""
    fam = BoundaryValueFamily(gamma1, gamma2, S, steps)
    lhs = spectral_flow(fam, base_grid, check=check).value
    rhs = maslov_pair(transported_path(S, gamma1, steps), gamma2)
    return VerificationReport(
        command="clm-hamiltonian",
        inputs={"n": gamma1.n, "steps": steps},
        values={"spectral_flow": lhs, "maslov_transported": rhs},
        passed=lhs == rhs,
        tolerances={"integer_equality": 0},
    )


def three_term_identity(
    S: SymmetricFamily,
    gamma1: LagrangianPath,
    gamma2: LagrangianPath,
    steps: int = DEFAULT_STEPS,
    base_grid=None,
    check: bool = True,
) -> VerificationReport:
    """sfl(A) against mu(Psi_1(.)g1(1), g2(1)) + mu(g1, g2) - mu(Psi_0(.)g1(0), g2(0))."""
    fam = BoundaryValueFamily(gamma1, gamma2, S, steps)
    lhs = spectral_flow(fam, base_grid, check=check).value
    term_end = maslov_pair(
        frozen_time_path(S, 1.0, gamma1.frame(1.0), steps), ConstantPath(gamma2.frame(1.0))
    )
    term_mid = maslov_pair(gamma1, gamma2)
    term_start = maslov_pair(
        frozen_time_path(S, 0.0, gamma1.frame(0.0), steps), ConstantPath(gamma2.frame(0.0))
    )
    rhs = term_end + term_mid - term_start
    return VerificationReport(
        command="three-term",
        inputs={"n": gamma1.n, "steps": steps},
        values={
            "spectral_flow": lhs,
            "term_end": term_end,
            "term_pair": term_mid,
            "term_start": term_start,
            "rhs": rhs,
        },
        passed=lhs == rhs,
        tolerances={"integer_equality": 0},
    )


def _validate_alpha_beta(alpha: PiecewiseLinear, beta: PiecewiseLinear):
    xs = sorted(set(alpha.breakpoints()) | set(beta.breakpoints()))
    for x in xs:
        resid = abs(float(beta(x)) - float(alpha(x)) - x)
        if resid > 1e-12:
            raise ValueError(
                f"constraint beta = alpha + lambda violated at breakpoint {x:.12g} "
                f"(residual {resid:.3e})"
            )
        for name, f in (("alpha", alpha), ("beta", beta)):
            v = float(f(x))
            if v < -1e-12 or v > 1.0 + 1e-12:
                raise ValueError(f"{name}({x:.12g}) = {v:.12g} outside [0, 1]")
    # the range constraints force the final values
    if abs(float(alpha(1.0))) > 1e-12 or abs(float(beta(1.0)) - 1.0) > 1e-12:
        raise ValueError("range constraints force alpha(1) = 0 and beta(1) = 1")


def alpha_beta_identity(
    S: SymmetricFamily,
    gamma1: LagrangianPath,
    gamma2: LagrangianPath,
    alpha: PiecewiseLinear,
    beta: PiecewiseLinear,
    steps: int = DEFAULT_STEPS,
    base_grid=None,
    check: bool = True,
) -> VerificationReport:
    """The reparametrized three-term identity with beta(lambda) = alpha(lambda) + lambda.

    sfl(A) = mu(Psi_0(alpha) g1(0), Psi_0(beta) Psi_0(1)^{-1} g2(0)) + mu(g1, g2)
             - mu(Psi_1(alpha) g1(1), Psi_1(beta) Psi_1(1)^{-1} g2(1)).
    """
    _validate_alpha_beta(alpha, beta)
    fam = BoundaryValueFamily(gamma1, gamma2, S, steps)
    lhs = spectral_flow(fam, base_grid, check=check).value

    def reparam_term(i: float) -> int:
        sol = fundamental_solution(S, i, steps)
        inv_end = _symplectic_inverse(sol.end())
        first = SymplecticActionPath(
            lambda lam: sol.at(float(alpha(lam))),
            gamma1.frame(i),
            hints=alpha.breakpoints(),
        )
        second = SymplecticActionPath(
            lambda lam: sol.at(float(beta(lam))) @ inv_end,
            gamma2.frame(i),
            hints=beta.breakpoints(),
        )
        return maslov_pair(first, second)

    term0 = reparam_term(0.0)
    term_mid = maslov_pair(gamma1, gamma2)
    term1 = reparam_term(1.0)
    rhs = term0 + term_mid - term1
    return VerificationReport(
        command="alpha-beta",
        inputs={
            "n": gamma1.n,
            "steps": steps,
            "alpha": alpha.serialize(),
            "beta": beta.serialize(),
            "alpha_end": 0.0,
            "beta_end": 1.0,
        },
        values={
            "spectral_flow": lhs,
            "term_start": term0,
            "term_pair": term_mid,
            "term_end": term1,
            "rhs": rhs,
        },
        passed=lhs == rhs,
        tolerances={"integer_equality": 0},
    )


def morse_index_formula(S: SymmetricFamily, steps: int = DEFAULT_STEPS, base_grid=None, check: bool = True) -> VerificationReport:
    """Dirichlet-type boundary {0} x R^n at both ends: spectral flow versus the
    Maslov index of lambda -> Psi_lambda(1)({0} x R^n) against {0} x R^n."""
    n = S.n
    L1 = l1_frame(n)
    wall = ConstantPath(L1)
    fam = BoundaryValueFamily(wall, wall, S, steps)
    lhs = spectral_flow(fam, base_grid, check=check).value
    rhs = maslov_pair(transported_path(S, wall, steps), wall)
    return VerificationReport(
        command="morse-index",
        inputs={"n": n, "steps": steps},
        values={"spectral_flow": lhs, "maslov_transported": rhs},
        passed=lhs == rhs,
        tolerances={"integer_equality": 0},
    )
