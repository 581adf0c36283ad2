"""Fundamental solutions of linear Hamiltonian systems and spectral-flow identities.

The fundamental solution solves J Psi' + S_lambda(t) Psi = 0 with Psi(0) = I,
i.e. Psi' = J S_lambda(t) Psi (the sign is pinned by S = delta I giving
Psi(t) = exp(delta J t)).  It is fixed-step RK4 written as products of the
one-step propagators P_k (see propagator.py), all formed at once.  Psi(1/2)
and Psi(1) are their ordered products over the two halves of the steps,
multiplied pairwise in log depth; the trajectory, every grid node Psi(t_k) =
P_{k-1} ... P_0, comes out of one inclusive prefix scan, doubling the offset
each round, formed only when a node is first read.  A 1-D array of lambdas
is solved the same way with a leading lambda axis, each solution bit for bit
that of its lambda alone, and `FundamentalSolution.at` takes an array of
times.  So every path built here is a SymplecticActionPath whose action maps
a lambda array to a stack of matrices: the transported path
Psi_lambda(1) gamma_1(lambda) solves stacks of at most 16 lambdas and reads
only the end products, and the frozen-time and alpha/beta paths read arrays
of times off one trajectory.  Each identity checker only names its terms,
sfl(A) = sum of sign * mu(pair), and one evaluator runs them all: the
spectral flow of the boundary-value family, computed by shooting, then the
Maslov index of each term's pair of paths transported by Psi, computed by
eigenphase winding, with the same steps, tol and max_depth, and then the
report.  The two sides share nothing beyond the RK4 step propagators, which
the tests check against an independent integrator, and basic linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .families import SymmetricFamily
from .maslov import maslov_pair
from .paths import ConstantPath, LagrangianPath, PiecewiseLinear, SymplecticActionPath
from .propagator import ordered_product, prefix_products, rk4_step_propagators
from .reports import VerificationReport
from .specflow import BoundaryValueFamily, spectral_flow, DEFAULT_STEPS, MAX_DEPTH, _finite_1d
from .symplectic import LagrangianFrame, l1_frame, norm2, standard_J

_DRIFT_ATOL = 1e-6
# fewest RK4 steps of a fundamental solution; the CLI holds every verify
# check that builds one to the same bound
MIN_STEPS = 64
# lambdas per stacked fundamental solution of a transported path: the stack
# holds every step propagator of every lambda, and peak memory grows with it
_STACK = 16


@dataclass(frozen=True)
class FundamentalSolution:
    """Psi_lambda on a uniform t-grid, as the one-step propagators of its steps
    and the products Psi(1/2) and Psi(1), with Psi(0) = I exactly; for a 1-D
    array of lambdas, the stacked solutions of every lambda."""

    lam: float | np.ndarray
    ts: np.ndarray
    props: np.ndarray  # P_k, (steps, 2n, 2n), or (m, steps, 2n, 2n)
    ends: np.ndarray  # Psi at t_{steps // 2} and at 1, along axis -3
    coeff_fn: object  # t -> J S_lambda(t), exact coefficient of the flow
    generator: object = None  # constant J S_lambda when t-independent

    @property
    def n(self) -> int:
        return self.ends.shape[-1] // 2

    def end(self) -> np.ndarray:
        return self.ends[..., 1, :, :]

    @cached_property
    def mats(self) -> np.ndarray:
        """Psi at every grid node, (steps + 1, 2n, 2n) or (m, steps + 1, 2n, 2n),
        formed by a log-depth prefix scan when first read."""
        props = self.props
        mats = np.empty(props.shape[:-3] + (props.shape[-3] + 1,) + props.shape[-2:])
        mats[..., 0, :, :] = np.eye(props.shape[-1])
        mats[..., 1:, :, :] = prefix_products(props)
        mats.setflags(write=False)
        return mats

    def at(self, t) -> np.ndarray:
        """Psi_lambda(t) at a time or an array of times, exact on grid nodes;
        shape np.shape(t) + (2n, 2n).  Only for the solution of one lambda.

        Off-grid values integrate from the nearest lower node with four
        shortened RK4 steps, whose propagators are multiplied onto the node
        value, so evaluation stays deterministic.
        Constant-coefficient families use the matrix exponential directly.
        """
        if self.props.ndim != 3:
            raise ValueError("at evaluates the fundamental solution of one lambda, not of a stack")
        t = np.asarray(t, dtype=float)
        ts = t.reshape(-1)
        bad = ~((0.0 <= ts) & (ts <= 1.0 + 1e-12))
        if bad.any():
            raise ValueError(f"time {ts[np.argmax(bad)]} outside [0, 1]")
        if self.generator is not None:
            return scipy.linalg.expm(t[..., None, None] * self.generator)
        h = self.ts[1] - self.ts[0]
        idx = np.minimum(np.floor(ts / h + 1e-12).astype(int), len(self.ts) - 1)
        t0 = self.ts[idx]
        out = self.mats[idx]
        off = ts - t0 > 1e-15
        if off.any():
            t0, sub = t0[off], (ts[off] - t0[off]) / 4.0
            samples = self.coeff_fn(t0[:, None] + (0.5 * sub)[:, None] * np.arange(9))
            P = rk4_step_propagators(samples[:, ::2], samples[:, 1::2], sub[:, None, None, None])
            out[off] = ordered_product(P) @ out[off]
        return out.reshape(t.shape + out.shape[-2:])


def _ends(props: np.ndarray) -> np.ndarray:
    """Psi(t_k) and Psi(1) for k = steps // 2, along axis -3: the ordered
    products of the first k step propagators and of the rest."""
    k = props.shape[-3] // 2
    half = ordered_product(props[..., :k, :, :])
    ends = np.stack([half, ordered_product(props[..., k:, :, :]) @ half], axis=-3)
    ends.setflags(write=False)
    return ends


def fundamental_solution(S: SymmetricFamily, lam, steps: int = DEFAULT_STEPS) -> FundamentalSolution:
    """Solve J Psi' + S_lambda(t) Psi = 0, Psi(0) = I, by fixed-step RK4, at a
    lambda or at each lambda of a 1-D array (every array then has a leading
    lambda axis, and each solution is bit for bit that of its lambda alone).

    The step propagators (for t-independent S, the exact step exp(h J S)) are
    formed at once; Psi(1/2) and Psi(1) are their ordered products, and the
    node values a prefix scan formed only when read.

    Raises when the symplecticity drift at t = 1/2 or t = 1 exceeds 1e-6,
    naming the first lambda where it does and suggesting more steps.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}, got {steps}")
    lam = _finite_1d(lam, "lam")
    lam = float(lam) if lam.ndim == 0 else lam
    n = S.n
    J = standard_J(n)
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    if S.t_independent():
        # constant-coefficient system: exact one-step propagator, no drift
        D = J @ S(lam, 0.0)
        step = scipy.linalg.expm(h * D)[..., None, :, :]
        props = np.broadcast_to(step, step.shape[:-3] + (steps,) + step.shape[-2:])
        return FundamentalSolution(lam, ts, props, _ends(props), lambda t: D, generator=D)
    nodes = J @ S(lam, ts)
    mids = J @ S(lam, ts[:-1] + 0.5 * h)
    props = rk4_step_propagators(nodes, mids, h)
    props.setflags(write=False)
    ends = _ends(props)
    drift = np.atleast_1d(norm2(np.swapaxes(ends, -1, -2) @ J @ ends - J).max(axis=-1))
    bad = drift > _DRIFT_ATOL
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"symplecticity drift {drift[k]:.3e} at lambda={np.ravel(lam)[k]:.6g} "
            f"exceeds {_DRIFT_ATOL}; increase steps"
        )
    return FundamentalSolution(lam, ts, props, ends, lambda t: J @ S(lam, t))


def transported_path(S: SymmetricFamily, gamma1: LagrangianPath, steps: int = DEFAULT_STEPS) -> LagrangianPath:
    """The path lambda -> Psi_lambda(1) gamma_1(lambda), its batches of lambdas
    solved in stacks of at most _STACK."""

    def ends(lams):
        return np.concatenate([
            fundamental_solution(S, lams[i : i + _STACK], steps).end()
            for i in range(0, lams.size, _STACK)
        ])

    return SymplecticActionPath(ends, gamma1, hints=gamma1.breakpoint_hints())


def frozen_time_path(S: SymmetricFamily, lam: float, base: LagrangianFrame, steps: int = DEFAULT_STEPS) -> LagrangianPath:
    """The path t -> Psi_lambda(t) L for frozen lambda."""
    sol = fundamental_solution(S, lam, steps)
    return SymplecticActionPath(sol.at, base)


def _symplectic_inverse(A: np.ndarray) -> np.ndarray:
    n = A.shape[0] // 2
    J = standard_J(n)
    return -J @ A.T @ J


def _identity(command, S, gamma1, gamma2, steps, tol, max_depth, inputs, terms) -> VerificationReport:
    """Check sfl(A) = sum of sign * mu(pair) over terms (name, sign, pair) for
    the boundary-value family of S with boundary (gamma_1, gamma_2); pair()
    builds the two paths of a term only when its index is computed, after the
    spectral flow and the terms listed before it.

    steps sets both the shooting and the fundamental solutions; tol and
    max_depth reach spectral_flow (on its default base grid, rechecked at
    doubled resolution) and every maslov_pair, and tol None keeps each one's
    default.  The report holds the spectral flow, each term and, for more
    than one term, their signed sum as rhs."""
    opts = {"max_depth": max_depth} if tol is None else {"tol": tol, "max_depth": max_depth}
    lhs = spectral_flow(BoundaryValueFamily(gamma1, gamma2, S, steps), **opts).value
    values = {"spectral_flow": lhs}
    for name, _, pair in terms:
        values[name] = maslov_pair(*pair(), **opts)
    rhs = sum(sign * values[name] for name, sign, _ in terms)
    if len(terms) > 1:
        values["rhs"] = rhs
    return VerificationReport(
        command=command,
        inputs={"n": gamma1.n, "steps": steps, **inputs},
        values=values,
        passed=lhs == rhs,
        tolerances={"integer_equality": 0},
    )


def clm_hamiltonian(
    S: SymmetricFamily,
    gamma1: LagrangianPath,
    gamma2: LagrangianPath,
    steps: int = DEFAULT_STEPS,
    tol: float | None = None,
    max_depth: int = MAX_DEPTH,
) -> VerificationReport:
    """Spectral flow of Ju' + S_lambda u with boundary (gamma_1, gamma_2) versus
    the Maslov index of (Psi gamma_1, gamma_2).  Both integers are reported."""
    terms = [("maslov_transported", 1, lambda: (transported_path(S, gamma1, steps), gamma2))]
    return _identity("clm-hamiltonian", S, gamma1, gamma2, steps, tol, max_depth, {}, terms)


def three_term_identity(
    S: SymmetricFamily,
    gamma1: LagrangianPath,
    gamma2: LagrangianPath,
    steps: int = DEFAULT_STEPS,
    tol: float | None = None,
    max_depth: int = MAX_DEPTH,
) -> VerificationReport:
    """sfl(A) against mu(Psi_1(.)g1(1), g2(1)) + mu(g1, g2) - mu(Psi_0(.)g1(0), g2(0))."""

    def frozen_pair(i: float):
        return frozen_time_path(S, i, gamma1.frame(i), steps), ConstantPath(gamma2.frame(i))

    terms = [("term_end", 1, lambda: frozen_pair(1.0)), ("term_pair", 1, lambda: (gamma1, gamma2)),
             ("term_start", -1, lambda: frozen_pair(0.0))]
    return _identity("three-term", S, gamma1, gamma2, steps, tol, max_depth, {}, terms)


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
    tol: float | None = None,
    max_depth: int = MAX_DEPTH,
) -> VerificationReport:
    """The reparametrized three-term identity with beta(lambda) = alpha(lambda) + lambda.

    sfl(A) = mu(Psi_0(alpha) g1(0), Psi_0(beta) Psi_0(1)^{-1} g2(0)) + mu(g1, g2)
             - mu(Psi_1(alpha) g1(1), Psi_1(beta) Psi_1(1)^{-1} g2(1)).
    """
    _validate_alpha_beta(alpha, beta)

    def reparam_pair(i: float):
        sol = fundamental_solution(S, i, steps)
        inv_end = _symplectic_inverse(sol.end())
        first = SymplecticActionPath(
            lambda lams: sol.at(alpha(lams)),
            gamma1.frame(i),
            hints=alpha.breakpoints(),
        )
        second = SymplecticActionPath(
            lambda lams: sol.at(beta(lams)) @ inv_end,
            gamma2.frame(i),
            hints=beta.breakpoints(),
        )
        return first, second

    terms = [("term_start", 1, lambda: reparam_pair(0.0)), ("term_pair", 1, lambda: (gamma1, gamma2)),
             ("term_end", -1, lambda: reparam_pair(1.0))]
    inputs = {"alpha": alpha.serialize(), "beta": beta.serialize(), "alpha_end": 0.0, "beta_end": 1.0}
    return _identity("alpha-beta", S, gamma1, gamma2, steps, tol, max_depth, inputs, terms)


def morse_index_formula(
    S: SymmetricFamily,
    steps: int = DEFAULT_STEPS,
    tol: float | None = None,
    max_depth: int = MAX_DEPTH,
) -> VerificationReport:
    """Dirichlet-type boundary {0} x R^n at both ends: spectral flow versus the
    Maslov index of lambda -> Psi_lambda(1)({0} x R^n) against {0} x R^n, that
    is clm_hamiltonian with the wall as both boundary paths."""
    wall = ConstantPath(l1_frame(S.n))
    return replace(clm_hamiltonian(S, wall, wall, steps, tol, max_depth), command="morse-index")
