"""Spectra and spectral flow of Ju' + S_lambda(t)u under Lagrangian boundary conditions.

Eigenvalues are counted, then located, by transfer-matrix shooting: mu is in
the spectrum of A_lambda exactly when the propagated subspace
Phi_{lambda,mu}(1) gamma_1(lambda) meets gamma_2(lambda).  For S identically
zero the transfer matrix is the closed-form rotation exp(-mu J), and for
t-independent S the exponentials at all its mu come from one stacked Pade
kernel (expm_stack in propagator.py), so those spectra carry no RK4 error.
Otherwise Phi(1) is the ordered product of the RK4 one-step propagators (see
propagator.py).  Each is a polynomial of degree 4 in mu whose
coefficients are polynomials in lambda, tabulated once per family; a lambda's
coefficients are one product of its lambda-powers with that table, and each
two consecutive steps are multiplied out once per lambda into one polynomial
of degree 8 in mu.  The paired steps for a chunk of (mu, lambda) pairs are
one matrix product with the mu-powers per lambda in the chunk, multiplied
pairwise in log depth.
The count is a Sturm-type fact (Arnold 1985; Beck & Malham 2015): every
eigenphase of C(mu) = W(Phi_mu(1) gamma_1) conj(W(gamma_2)) decreases as mu
grows and passes through 0 exactly at the eigenvalues, so the eigenphase sum,
each phase taken in [-_TIE, 2pi - _TIE), jumps by 2pi per eigenvalue; a
phase at 0 up to rounding, of either sign, has not yet crossed, so an
eigenvalue on a scan point counts above it.  Every scan interval is thus
half-open, [a, b), and so is every mu-window: an eigenvalue on its lower
edge is inside, one on its upper edge outside.  The detector never forms C:
with Phi(1) F1 = Q R, the n x n matrix V = U_Q^* U_2 is read off
Q^T [F2 | J F2], C is similar to conj(V^T V), and the determinant
sign(det R) det(Q^T J F2) keeps no trace of the column signs the QR picks, so
it is continuous in mu.  For n <= 2 all of it is closed form, elementwise in
mu: two-pass Gram-Schmidt for Q (so det R > 0), a scalar or a 2 x 2
determinant, and the roots of the characteristic quadratic of V^T V, its
discriminant formed from the entries that vanish at a double eigenvalue; for
n >= 3 each mu takes one LAPACK QR, det and eigenproblem.  spectrum_window
takes one mu-window per call and scans and narrows it at up to 32 lambdas
together, batching the detector over mu and lambda, and each window comes
out exactly as it would alone; a scalar lambda is a stack of one, and the
detector takes one lambda per mu.  Every scan interval that holds
eigenvalues is narrowed with the count as bracket invariant, by Illinois
secant steps (Dowell & Jarratt 1971) on the k-th root of |det| for a bracket
holding k of them, det being a smooth determinant that vanishes on the
spectrum, signed + at the lower end and - at the upper: near
a k-fold eigenvalue det ~ c (mu - mu*)^k, so that root is linear through it.
Halving takes over where the secant stalls.  The count's parity is checked
against det's sign changes.

The spectral flow follows the partition definition (Phillips, "Self-adjoint
Fredholm operators and spectral flow", 1996): on each parameter subinterval
an eigenvalue-free threshold epsilon is chosen and the counts of eigenvalues
in [-_ZERO_TOL, epsilon] at the two ends are differenced.  At S = 0,
C(lambda, mu) = e^{-2i mu} C(lambda), so an eigenvalue mu is an eigenphase
2 mu of W1 conj(W2): the kernel band _ZERO_TOL = 1e-9 is the phase band
[-2e-9, 0], against the Maslov side's [-PHASE_TOL, 0] = [-1e-9, 0].
Subintervals are bisected until branch motion is small against the epsilon
margins, level by level: the windows at every new node of a level come from
one stacked spectrum_window call, so the detector calls of a level are
shared by all its nodes.  The whole computation is repeated at doubled grid resolution as a
consistency check.  No function takes an accuracy setting: the locator
width MU_TOL, the depth cap MAX_DEPTH, the base grid _default_base_nodes and
the step floor MIN_STEPS are constants of this module, read at each call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .families import SymmetricFamily
from .paths import LagrangianPath, RotatedPath
from .propagator import expm_stack, ordered_product, paired_steps, rk4_step_coefficients, rk4_steps_at
from .symplectic import check_integer, gap_distance, standard_J, subspace_frame

MU_TOL = 1e-10
_SF_WINDOW = 1.45
_SF_CORE = 1.0
_EPS_MAX = np.pi / 4
# a threshold's margin must beat the branch motion by this much, far above the
# locator error (below MU_TOL), so rounding never decides a refinement
_EPS_SLACK = 1e-6
_ZERO_TOL = 1e-9
# an eigenphase within _TIE below 2pi counts as that phase minus 2pi, so the
# rounding sign of a phase at 0 decides no count
_TIE = 64 * np.finfo(float).eps
DEFAULT_STEPS = 256
# fewest RK4 steps of the shooting and of a fundamental solution
MIN_STEPS = 64
# partition refinement levels below the base grid before spectral_flow raises
MAX_DEPTH = 40
# (mu, lambda) pairs propagated together: with the steps built as one matrix
# product from the coefficients, chunks of 16 matched or beat 4, 8, 32 and the
# whole batch for batches of 2-250 mu at one lambda, 256 steps, n = 1 and 2
# (2-vCPU Xeon, 4 MB L2, one BLAS thread: 250 mu at n = 2 in 3.2 ms against
# 7.6 ms for chunks of 4 and 4.4 ms for the whole batch; measured before the
# steps were paired, and on paired steps chunks of 32 were within the noise
# of 16); 16 pairs keep their 128 paired steps each near 0.26 MB at n = 2.
# Pairs of several lambdas are sorted by lambda and chunked the same way,
# each chunk's steps built from one matrix product per lambda in it
_MU_CHUNK = 16
# lambdas whose windows spectrum_window locates together: the family builds
# the slices of a whole stack at once, and at 256 steps and n = 2 each holds
# 147 KB of paired RK4 coefficients (1.3 MB at 1024 steps and n = 3), built
# from its lambda's products with the family's table, so a longer lambda grid
# is located in stacks of this many; 32 covers the first level of a spectral
# flow on the default grid of 17 steps
_STACK = 32
# rows of the bracket table of the eigenvalue locator in spectrum_window, one
# column per bracket: its ends, its eigenvalue count, the eigenphase sum at
# lo, the (Illinois-scaled) determinant at both ends, the end the last secant
# step kept (-1 lo, 1 hi, 0 neither), 1 once two probes tol apart caught its
# eigenvalue, and the position of its window in the stack of lambdas
_LO, _HI, _CNT, _S_LO, _F_LO, _F_HI, _KEPT, _CAUGHT, _WIN = range(9)
# the window scan of spectrum_window halves every interval it cannot count
# exactly; a scan that would hold more than this many times its first points
# raises EigenvalueCountMismatch instead of doubling without end
_SCAN_GROWTH = 64
# the RK4 coefficient table of the latest (S, steps), as (weak reference to
# S, steps, table): one slot for the whole process, read by the shooting and
# by the fundamental solutions of hamiltonian.py (its mu^0 coefficients), since
# a table kept per family would live as long as its family (0.82 MB at n = 2,
# d_lambda = 2 and 256 steps), and emptied when S is collected
_table: tuple | None = None


class EigenvalueCountMismatch(RuntimeError):
    """The eigenphase count of a mu-window contradicts the detector's sign
    changes, or cannot be made exact by refining the scan."""


class NonFiniteTransfer(RuntimeError):
    """The propagated frame Phi(1) gamma_1 holds an inf or a NaN, typically
    an RK4 transfer overflowed on a family too large for its steps: nothing
    can be counted there.  The message names lambda and the first such mu."""


@dataclass(frozen=True)
class _Slices:
    """Everything the detector needs at a set of lambdas, stacked along the
    first axis, built once per set.

    coeff is None for S = 0, the generators J S(lambda, 0) for t-independent
    S, and otherwise the coefficients (9, ceil(steps / 2), 2n, 2n) of the
    products of consecutive RK4 step propagators as polynomials in mu, per
    lambda, paired from its coefficients in the family's table (see
    rk4_step_coefficients and paired_steps).
    """

    F1: np.ndarray
    F2J: np.ndarray  # [F2 | J F2], F2 the frames of gamma_2, shape (m, 2n, 2n)
    coeff: object


def _coefficient_table(S: SymmetricFamily, steps: int) -> tuple:
    """The RK4 coefficient table of Phi' = (J S(lambda, t) - mu J) Phi (see
    rk4_step_coefficients), built once for the latest (S, steps)."""
    global _table
    if _table is None or _table[0]() is not S or _table[1] != steps:
        _table = None  # free the old table before building the new
        h = 1.0 / steps
        ts = np.linspace(0.0, 1.0, steps + 1)
        J = standard_J(S.n)
        K = J @ S.lambda_coefficients(np.concatenate([ts, ts[:-1] + 0.5 * h]))
        T = rk4_step_coefficients(K[:, : steps + 1], K[:, steps + 1 :], h)
        _table = (weakref.ref(S, _release_table), steps, T)
    return _table[2]


def _release_table(ref) -> None:
    """Empty the table slot once the family it was built for is collected."""
    global _table
    if _table is not None and _table[0] is ref:
        _table = None


def step_coefficients(S: SymmetricFamily, steps: int, lam: float, j: int) -> np.ndarray:
    """The mu^j coefficients, shape (steps, 2n, 2n), of the RK4 step
    propagators of J S(lam, t) - mu J: one product of lam's powers with the
    rows T[j] of the family's table, so a lambda's are the same bits alone
    and in any stack."""
    T_j = _coefficient_table(S, steps)[j]
    return ((lam ** np.arange(len(T_j), dtype=float)) @ T_j.reshape(len(T_j), -1)).reshape(T_j.shape[1:])


def _rk4_transfer_batch(C, mus, at):
    """Propagate Phi' = (JS(t) - mu J) Phi from identity, batched over mu, from
    the stacked coefficients C of the paired RK4 step propagators as
    polynomials in mu of several lambdas, at[i] being the position of mu[i]'s
    lambda.

    The (mu, lambda) pairs are taken in order of lambda, so that a chunk
    builds its steps from one matrix product per run of one lambda in it.
    """
    order = np.argsort(at, kind="stable")
    mus, at = mus[order], at[order].tolist()
    out = np.empty((len(mus),) + C.shape[-2:])
    for s in range(0, len(mus), _MU_CHUNK):
        e = min(s + _MU_CHUNK, len(mus))
        cuts = [s, *(i for i in range(s + 1, e) if at[i] != at[i - 1]), e]
        steps = [rk4_steps_at(C[at[a]], mus[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        out[order[s:e]] = ordered_product(steps[0] if len(steps) == 1 else np.concatenate(steps))
    return out


def check_steps(steps) -> None:
    """Raise a ValueError unless steps is an integer of at least MIN_STEPS."""
    check_integer(steps, "steps")
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}, got {steps}")


class BoundaryValueFamily:
    """The operators A_lambda u = Ju' + S_lambda(t)u with u(0) in gamma_1(lambda),
    u(1) in gamma_2(lambda).

    S is a SymmetricFamily, symmetric by construction, or None for the zero
    family.
    """

    def __init__(
        self,
        gamma1: LagrangianPath,
        gamma2: LagrangianPath,
        S: SymmetricFamily | None = None,
        steps: int = DEFAULT_STEPS,
    ):
        if gamma1.n != gamma2.n:
            raise ValueError(f"half-dimension mismatch: {gamma1.n} vs {gamma2.n}")
        check_steps(steps)
        self.n = gamma1.n
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.S = None if (S is None or S.is_zero()) else S
        self.steps = steps
        self._J = standard_J(self.n)
        # only the latest lambda set's slices are kept, with its sorted
        # lambdas, one lambda alone being a set of one: the detector is
        # called for the lambdas of one stack of at most _STACK windows at a
        # time, spectral_flow caches the windows, and a slice holds the nine
        # coefficient arrays of the paired RK4 steps (147 KB at 256 steps and
        # n = 2), too much to keep for every lambda ever seen; the family's
        # table, from which they are rebuilt by one product per power of mu
        # and one pairing, is kept apart
        self._last: tuple | None = None
        self._t_const = self.S is not None and self.S.t_independent()

    def shifted(self, delta: float) -> "BoundaryValueFamily":
        """The family A + delta I: the same boundary paths with S + delta I."""
        S = SymmetricFamily.zero(self.n) if self.S is None else self.S
        return BoundaryValueFamily(self.gamma1, self.gamma2, S.shifted(delta), self.steps)

    @property
    def s_norm(self) -> float:
        return 0.0 if self.S is None else self.S.sup_norm()

    def breakpoint_hints(self):
        return tuple(
            sorted(set(self.gamma1.breakpoint_hints()) | set(self.gamma2.breakpoint_hints()))
        )

    def _build(self, lams: np.ndarray) -> _Slices:
        F2 = self.gamma2.frames(lams)
        if self.S is None:
            coeff = None
        elif self._t_const:
            coeff = self._J @ self.S(lams, 0.0)
        else:
            # the table first, so that its build's temporaries are freed
            # before the slices are allocated; then a lambda's steps paired
            # into its own slot: no lambda's depend on the others, and the
            # unpaired coefficients of one lambda at a time are held
            _coefficient_table(self.S, self.steps)
            coeff = np.empty((len(lams), 9, (self.steps + 1) // 2) + self._J.shape)
            for i, lam in enumerate(lams.tolist()):
                C = np.stack([step_coefficients(self.S, self.steps, lam, j) for j in range(5)])
                coeff[i] = paired_steps(C)
        return _Slices(self.gamma1.frames(lams), np.concatenate([F2, self._J @ F2], axis=2), coeff)

    def _slices(self, lams: np.ndarray):
        """The slices of the latest lambda set that holds every one of lams,
        and the position of each of lams in it."""
        if self._last is not None:
            keys, sl = self._last
            at = np.minimum(np.searchsorted(keys, lams), len(keys) - 1)
            if np.array_equal(keys[at], lams):
                return sl, at
        keys, at = np.unique(lams, return_inverse=True)
        self._last = None  # free the old set before building the new
        self._last = (keys, self._build(keys))
        return self._last[1], at

    def _transfer_at(self, sl: _Slices, at: np.ndarray, mus: np.ndarray) -> np.ndarray:
        """Phi(1) at each mu, mu[i] at the lambda in position at[i] of sl."""
        if sl.coeff is None:
            eye = np.eye(2 * self.n)
            return np.cos(mus)[:, None, None] * eye - np.sin(mus)[:, None, None] * self._J
        if self._t_const:
            # constant-coefficient system: exact matrix exponential, no drift
            return expm_stack(sl.coeff[at] - mus[:, None, None] * self._J)
        return _rk4_transfer_batch(sl.coeff, mus, at)

    def transfer(self, lam: float, mu: float) -> np.ndarray:
        return self._transfer_at(*self._slices(np.array([float(lam)])), np.array([float(mu)]))[0]

    def detector_batch(self, lam, mus):
        """Detector data for a batch of mu values, at one lambda or, with lam
        an array shaped like mus, at one lambda per mu.

        Returns (g, dets, phase_sums): the smallest singular value of
        [frame(Phi gamma_1) | frame(gamma_2)] per mu, a signed determinant
        vanishing exactly on the spectrum and continuous in mu, and the sum
        of the eigenphases of C = W(Phi gamma_1) conj(W(gamma_2)), each in
        [-_TIE, 2pi - _TIE): a phase at 0 up to rounding, whichever its sign,
        has not yet crossed, so an eigenvalue on a scan point is counted
        above it.

        With Phi F1 = Q R and A = Q^T [F2 | J F2], the determinant is
        sign(det R) det(Q^T J F2) = det((Phi F1)^T J F2) / |det R|, which does
        not depend on the signs the QR gives Q's columns, so it is continuous
        in mu.  V = A[:, :n] - i A[:, n:] is U_Q^* U_2, U = X + iY being the
        complex block of a frame [X; Y], and C is similar to conj(V^T V):
        U_2^* C U_2 = V^* conj(V), which needs only U_2 unitary, so it holds
        while RK4 drift leaves Q slightly off Lagrangian.  The eigenphases of
        C are those of V^T V negated.  For n <= 2 these come from closed
        forms (_closed_form_tail), for n >= 3 from one LAPACK QR, det and
        eigenproblem per mu (_lapack_tail).  A Phi(1) F1 that is not finite
        raises NonFiniteTransfer.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        lams = np.full(mus.shape, lam, dtype=float)
        sl, at = self._slices(lams)
        B = self._transfer_at(sl, at, mus) @ sl.F1[at]
        if not np.isfinite(B).all():
            k = np.flatnonzero(~np.isfinite(B).all(axis=(1, 2)))[0]
            raise NonFiniteTransfer(f"Phi(1) gamma_1 is not finite at lambda={lams[k]:.6g}, mu={mus[k]:.12g}")
        dets, eigs = (_closed_form_tail if self.n <= 2 else _lapack_tail)(B, sl.F2J, at)
        phases = -np.angle(eigs) % (2.0 * np.pi)
        # an eigenphase phi of C is twice a principal angle psi between the two
        # subspaces, up to sign mod 2pi, and [Q | F2] has singular values
        # sqrt(1 -+ cos psi); the smallest is sqrt(2) sin(psi / 2)
        psi = np.min(np.minimum(phases / 2.0, np.pi - phases / 2.0), axis=0)
        sums = np.sum(np.where(phases >= 2.0 * np.pi - _TIE, phases - 2.0 * np.pi, phases), axis=0)
        return np.sqrt(2.0) * np.sin(psi / 2.0), dets, sums


def _lapack_tail(B, F2J, at):
    """(dets, eigenvalues of V^T V) of detector_batch for B = Phi(1) F1, the
    frames' [F2 | J F2] being F2J[at], by one QR, det and eigenproblem per mu;
    the eigenvalues come one row per eigenvalue, one column per mu."""
    n = B.shape[2]
    Q, R = np.linalg.qr(B)
    A = np.swapaxes(Q, 1, 2) @ F2J[at]
    orientation = np.sign(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))
    V = A[:, :, :n] - 1j * A[:, :, n:]
    return orientation * np.linalg.det(A[:, :, n:]), np.linalg.eigvals(np.swapaxes(V, 1, 2) @ V).T


def _closed_form_tail(B, F2J, at):
    """_lapack_tail for n <= 2 by closed forms, elementwise in mu.

    Q comes from two-pass classical Gram-Schmidt, which keeps two columns
    orthogonal to working precision (Giraud, Langou & Rozloznik 2005); R has
    a positive diagonal, so sign(det R) = 1.  The eigenvalues of the complex
    symmetric Z = V^T V are V^2 for n = 1 and (z00 + z11)/2 -+
    sqrt(((z00 - z11)/2)^2 + z01^2) for n = 2.  Z is unitary up to rounding,
    hence normal, so at a double eigenvalue it is a multiple of I: z00 - z11
    and z01 vanish there up to rounding, the discriminant, a sum of their
    squares, is off by about eps^2, and its root by eps; tr^2/4 - det would
    be off by eps and move a double eigenphase by sqrt(eps).
    """
    n = B.shape[2]
    # each mu's B scaled by a power of two, which rounds nothing and keeps
    # the squared norms finite whatever the growth of Phi
    X = np.ascontiguousarray(B.transpose(2, 1, 0))  # column, component, mu
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=(0, 1)))[1])
    q = X[0] / np.sqrt((X[0] * X[0]).sum(axis=0))
    if n == 1:
        Q = q[None]
    else:
        v = X[1] - (q * X[1]).sum(axis=0) * q
        v = v - (q * v).sum(axis=0) * q
        Q = np.stack([q, v / np.sqrt((v * v).sum(axis=0))])
    A = (Q.transpose(2, 0, 1) @ F2J[at]).transpose(1, 2, 0)  # row, column, mu
    V = A[:, :n] - 1j * A[:, n:]
    if n == 1:
        return A[0, 1], V[0] * V[0]
    z00 = V[0, 0] * V[0, 0] + V[1, 0] * V[1, 0]
    z11 = V[0, 1] * V[0, 1] + V[1, 1] * V[1, 1]
    z01 = V[0, 0] * V[0, 1] + V[1, 0] * V[1, 1]
    mid, half = 0.5 * (z00 + z11), 0.5 * (z00 - z11)
    root = np.sqrt(half * half + z01 * z01)
    return A[0, 2] * A[1, 3] - A[0, 3] * A[1, 2], np.stack([mid + root, mid - root])


def eigen_detector(fam, lam: float, mu: float) -> float:
    """Smallest singular value of the shooting detector; zero on the spectrum."""
    return float(fam.detector_batch(lam, [mu])[0][0])


@dataclass(frozen=True)
class SpectrumWindow:
    """All eigenvalues of one operator A_lambda in the half-open mu-window
    [mu_min, mu_max)."""

    lam: float
    mu_min: float
    mu_max: float
    eigenvalues: tuple  # ((mu, multiplicity), ...) sorted by mu

    def values(self) -> np.ndarray:
        """Eigenvalues expanded with multiplicity."""
        out = []
        for mu, mult in self.eigenvalues:
            out.extend([mu] * mult)
        return np.asarray(out)

    def count_between(self, lo: float, hi: float) -> int:
        return int(sum(m for mu, m in self.eigenvalues if lo <= mu <= hi))


def _count(sum_a, sum_b):
    """Eigenvalues in [a, b) from the eigenphase sums at its ends, and the
    wrapped change of arg det C over it: the count is exact when that change
    is negative, i.e. when the true change lies in (-pi, 0)."""
    turns = np.rint((sum_b - sum_a) / (2.0 * np.pi))
    return turns.astype(int), sum_b - sum_a - 2.0 * np.pi * turns


def _finite(x, name: str, ndim: int = 1) -> np.ndarray:
    """x as a float array, rejected unless finite and of at most ndim
    dimensions: a scalar, or for ndim 1 also a 1-D array."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x}")
    if x.ndim > ndim:
        raise ValueError(f"{name} must be {('a scalar', 'a scalar or a 1-D array')[ndim]}, got shape {x.shape}")
    return x


def spectrum_window(fam, lam, mu_min, mu_max):
    """Locate every eigenvalue of A_lambda in [mu_min, mu_max) with multiplicity.

    For a scalar lam, located as a stack of one, this returns one
    SpectrumWindow.  For a 1-D array of lambdas it returns a tuple of them,
    one per lambda, all with the window [mu_min, mu_max), located together
    in stacks of at most _STACK lambdas: every detector call serves all the
    windows of a stack at once, and each window is located exactly as it
    would be alone.  The edges are scalars; an array edge is a ValueError
    naming it.

    The window is scanned at a step tied to the a-priori pi-spacing of the
    branch families, capped at pi/(4n) and shrunk with the size of S, so that
    arg det C changes by less than pi per scan interval; an interval whose
    wrapped change is not negative is halved.  The number of eigenvalues in
    each interval is the winding of the eigenphase sum.  Every interval that
    holds eigenvalues is narrowed to width MU_TOL with that count deciding each
    new bracket.  A bracket that holds k eigenvalues takes Illinois secant
    steps on |det|^(1/k) at its lower end and -|det|^(1/k) at its upper end,
    det being the detector's determinant, probed at x -+ MU_TOL/2, while the
    iterations left still let plain halving finish; it is halved, keeping
    each half that holds eigenvalues, once they would not or when det
    vanishes at both ends.  No window takes more than
    twice the levels of plain bisection.  Each final midpoint is reported
    with its count as multiplicity, and points closer than 2 MU_TOL, those of
    adjacent final brackets, are merged.
    Between scan points that are not eigenvalues, the parity of the count must
    match the sign change of the smooth determinant, or
    EigenvalueCountMismatch is raised, as it is when halving would grow a
    window's scan past _SCAN_GROWTH times its first points.  An eigenvalue on
    an edge is decided as at any scan point: one on mu_min is in the window,
    located to within MU_TOL above it, and one on mu_max is not.
    """
    lam = _finite(lam, "lam")
    lams = np.atleast_1d(lam)
    mu_min, mu_max = float(_finite(mu_min, "mu_min", 0)), float(_finite(mu_max, "mu_max", 0))
    if not mu_min < mu_max:
        raise ValueError("empty mu-window")
    windows = []
    for s in range(0, lams.size, _STACK):
        windows.extend(_locate(fam, lams[s : s + _STACK], mu_min, mu_max))
    return tuple(windows) if lam.ndim else windows[0]


def _locate(fam, lams, mu_min, mu_max):
    """The windows of spectrum_window at a stack of at most _STACK lambdas,
    each [mu_min, mu_max), as a tuple."""
    tol = MU_TOL

    def detect(w, mus):  # the detector at the lambdas of windows w
        return fam.detector_batch(lams[w], mus)

    step = min(np.pi / 8.0, np.pi / (4.0 * fam.n)) / (1.0 + min(fam.s_norm, 3.0))
    npts = max(9, int(np.ceil((mu_max - mu_min) / step)) + 1)
    grid = np.tile(np.linspace(mu_min, mu_max, npts), lams.size)
    win = np.repeat(np.arange(lams.size), npts)  # the window of each scan point
    g, dets, sums = detect(win, grid)

    def mismatch(a, b, k, why):
        return EigenvalueCountMismatch(f"{why} at lambda={lams[k]:.6g} on mu in [{a:.12g}, {b:.12g}]")

    most = _SCAN_GROWTH * npts  # scan points allowed per window
    while True:
        counts, wrapped = _count(sums[:-1], sums[1:])
        across = win[:-1] != win[1:]  # pairs of scan points of two windows
        counts[across] = 0
        bad = np.nonzero(~across & ((wrapped >= 0) | (counts < 0)))[0]
        if not bad.size:
            break
        narrow = bad[grid[bad + 1] - grid[bad] <= tol]
        if narrow.size:
            k = narrow[0]
            raise mismatch(grid[k], grid[k + 1], win[k], "arg det C does not decrease")
        grown = np.bincount(np.concatenate([win, win[bad]]), minlength=lams.size) > most
        if grown.any():
            k = np.argmax(grown)
            mine = bad[win[bad] == k]
            raise mismatch(grid[mine[0]], grid[mine[-1] + 1], k,
                           f"the scan outgrew {_SCAN_GROWTH} times its first points")
        mids = 0.5 * (grid[bad] + grid[bad + 1])
        gm, dm, sm = detect(win[bad], mids)
        grid, g = np.insert(grid, bad + 1, mids), np.insert(g, bad + 1, gm)
        dets, sums = np.insert(dets, bad + 1, dm), np.insert(sums, bad + 1, sm)
        win = np.insert(win, bad + 1, win[bad])

    # certificate: between scan points off the spectrum, an odd count and a
    # sign change of the determinant go together
    clean = np.nonzero(g > 10 * tol)[0]
    total = np.concatenate([[0], np.cumsum(counts)])
    odd = (total[clean[1:]] - total[clean[:-1]]) % 2 == 1
    flips = dets[clean[1:]] * dets[clean[:-1]] < 0
    wrong = np.nonzero((odd != flips) & (win[clean[1:]] == win[clean[:-1]]))[0]
    if wrong.size:
        i, j = clean[wrong[0]], clean[wrong[0] + 1]
        raise mismatch(grid[i], grid[j], win[i], "eigenvalue count parity contradicts the determinant")

    # Each iteration cuts every bracket wider than tol and keeps the parts
    # that hold eigenvalues: a secant bracket into lower, inner and upper
    # parts at the probes p = x - tol/2 and q = x + tol/2, any other at its
    # midpoint p = q.  The count k of a bracket says that all its k
    # eigenvalues lie above lo and below hi, so the secant runs on
    # f = |det|^(1/k) at lo and -|det|^(1/k) at hi: every eigenphase crosses
    # 0 at nonzero speed, so det ~ c (mu - mu*)^k near a k-fold eigenvalue
    # and f is linear through it.  For k = 1 this is det up to one sign,
    # which the secant quotient ignores.  An end kept by two secant steps in
    # a row has its determinant halved (Illinois).  A secant step is taken
    # only while the iterations left after it would still let halving alone
    # reach tol.  Each window has its own iteration budget, twice the levels
    # of plain bisection from its widest bracket; a bracket is finished when
    # its window's is spent.
    live = counts > 0
    b = np.zeros((9, np.count_nonzero(live)))
    b[_LO], b[_HI], b[_CNT], b[_S_LO] = grid[:-1][live], grid[1:][live], counts[live], sums[:-1][live]
    b[_F_LO], b[_F_HI], b[_WIN] = dets[:-1][live], dets[1:][live], win[:-1][live]
    widest = np.zeros(lams.size)
    np.maximum.at(widest, win[:-1][live], b[_HI] - b[_LO])
    budget = 2 * np.ceil(np.log2(np.maximum(widest, tol) / tol))
    finished = []
    for it in range(int(np.max(budget))):
        width, w = b[_HI] - b[_LO], b[_WIN].astype(int)
        over = (b[_CAUGHT] > 0) | (width <= tol) | (budget[w] <= it)
        finished.append(b[:, over])
        b, width, w = b[:, ~over], width[~over], w[~over]
        if not b.shape[1]:
            break
        lo, hi = b[_LO], b[_HI]
        f_lo, f_hi = np.abs(b[_F_LO]) ** (1.0 / b[_CNT]), -(np.abs(b[_F_HI]) ** (1.0 / b[_CNT]))
        halvings = np.ceil(np.log2(width / tol))
        # f_lo >= 0 >= f_hi, so f_lo > f_hi unless both ends are eigenvalues
        sec = (f_lo > f_hi) & (width > 4.0 * tol) & (halvings < budget[w] - it)
        x = 0.5 * (lo + hi)
        x[sec] = np.clip(
            lo[sec] + width[sec] * f_lo[sec] / (f_lo[sec] - f_hi[sec]), lo[sec] + tol, hi[sec] - tol
        )
        p, q = np.where(sec, x - 0.5 * tol, x), np.where(sec, x + 0.5 * tol, x)
        _, d, s = detect(np.concatenate([w, w[sec]]), np.concatenate([p, q[sec]]))
        d_p, s_p = d[: p.size], s[: p.size]
        d_q, s_q = d_p.copy(), s_p.copy()
        d_q[sec], s_q[sec] = d[p.size :], s[p.size :]
        n1, n2 = _count(b[_S_LO], s_p)[0], _count(s_p, s_q)[0]
        n3 = b[_CNT] - n1 - n2
        bad = (n1 < 0) | (n2 < 0) | (n3 < 0)
        if bad.any():
            k = np.argmax(bad)
            raise mismatch(lo[k], hi[k], w[k], "parts do not add up to the count")
        parts = np.repeat(b[:, None], 3, axis=1)
        lower, inner, upper = parts[:, 0], parts[:, 1], parts[:, 2]
        lower[_HI], lower[_CNT], lower[_F_HI] = p, n1, d_p
        lower[_F_LO] *= np.where(sec & (b[_KEPT] == -1), 0.5, 1.0)
        lower[_KEPT] = np.where(sec, -1.0, 0.0)
        inner[_LO], inner[_HI], inner[_CNT], inner[_S_LO] = p, q, n2, s_p
        inner[_F_LO], inner[_F_HI], inner[_KEPT], inner[_CAUGHT] = d_p, d_q, 0.0, 1.0
        upper[_LO], upper[_CNT], upper[_S_LO], upper[_F_LO] = q, n3, s_q, d_q
        upper[_F_HI] *= np.where(sec & (b[_KEPT] == 1), 0.5, 1.0)
        upper[_KEPT] = np.where(sec, 1.0, 0.0)
        b = parts[:, np.array([n1, n2, n3]) > 0]

    lo, hi, cnt, w = np.concatenate(finished + [b], axis=1)[[_LO, _HI, _CNT, _WIN]]
    order = np.lexsort((lo, w))
    found = [[] for _ in range(lams.size)]
    prev, last_mu = -1, -np.inf
    for mu, mult, k in zip(0.5 * (lo[order] + hi[order]), cnt[order], w[order].astype(int).tolist()):
        eigenvalues = found[k]
        if k == prev and mu - last_mu < 2.0 * tol:
            eigenvalues[-1] = (eigenvalues[-1][0], eigenvalues[-1][1] + int(mult))
        else:
            eigenvalues.append((float(mu), int(mult)))
        prev, last_mu = k, mu
    return tuple(SpectrumWindow(float(x), mu_min, mu_max, tuple(ev)) for x, ev in zip(lams, found))


@dataclass
class SpectralFlowResult:
    """Spectral flow integer with the partition, thresholds and branch data."""

    value: int
    partition: list
    epsilons: list
    branch_data: list = field(default_factory=list)


def _interval_contribution(Ea: SpectrumWindow, Eb: SpectrumWindow):
    """Count difference over one subinterval and its threshold, or None if it
    must be refined.

    Walls are 0 and the absolute eigenvalues at both ends.  Between each two
    walls a <= b with a < pi/4, epsilon = (a + min(b, pi/4)) / 2; the first
    with the largest margin min(epsilon - a, b - epsilon) is accepted if that
    beats the branch motion by _EPS_SLACK and is above 1e-3.  As a >= 0, the
    margin is at most pi/8: a motion of pi/8 or more always refines, and a
    wall above pi/4 + pi/8 never decides a margin.
    """
    A, B = Ea.values(), Eb.values()

    def motion(xs, ys):
        worst = 0.0
        for x in xs:
            if abs(x) > _SF_CORE:
                continue
            if ys.size == 0:
                return np.inf
            worst = max(worst, float(np.min(np.abs(ys - x))))
        return worst

    m = max(motion(A, B), motion(B, A))
    walls = np.sort(np.abs(np.concatenate([[0.0], A, B])))
    a = walls[walls < _EPS_MAX]
    b = np.append(walls[1:], np.inf)[: a.size]
    eps = 0.5 * (a + np.minimum(b, _EPS_MAX))
    margin = np.minimum(eps - a, b - eps)
    k = int(np.argmax(margin))
    if margin[k] <= max(m + _EPS_SLACK, 1e-3):
        return None
    eps = float(eps[k])
    return Eb.count_between(-_ZERO_TOL, eps) - Ea.count_between(-_ZERO_TOL, eps), eps


def _sflow_once(fam, base_nodes, spectra: dict):
    """Refine the subintervals of base_nodes level by level, to at most
    MAX_DEPTH levels: the windows at every new node of a level are located
    in one stacked spectrum_window call, then each open subinterval either
    gets its threshold or is halved."""
    segments = []
    pending = list(zip(base_nodes[:-1], base_nodes[1:]))
    for depth in range(MAX_DEPTH + 1):
        new = [lam for lam in dict.fromkeys(x for seg in pending for x in seg) if lam not in spectra]
        if new:
            spectra.update(zip(new, spectrum_window(fam, np.array(new), -_SF_WINDOW, _SF_WINDOW)))
        refine = []
        for a, b in pending:
            r = _interval_contribution(spectra[a], spectra[b])
            if r is None:
                refine.append((a, b))
            else:
                segments.append((a, b, r[0], r[1]))
        if not refine:
            break
        if depth >= MAX_DEPTH:
            a, b = refine[0]
            raise RuntimeError(f"failed to separate eigenvalue branches on [{a:.12g}, {b:.12g}]")
        pending = [half for a, b in refine for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]

    segments.sort(key=lambda s: s[0])
    value = int(sum(s[2] for s in segments))
    partition = [segments[0][0]] + [s[1] for s in segments]
    epsilons = [s[3] for s in segments]
    branch_data = [spectra[lam] for lam in partition]
    return value, partition, epsilons, branch_data


def _default_base_nodes(fam):
    """The base grid of spectral_flow: 17 equal steps of [0, 1] and the
    boundary paths' breakpoints."""
    hints = set(np.linspace(0.0, 1.0, 17)) | set(fam.breakpoint_hints())
    return np.array(sorted(hints))


def spectral_flow(fam: BoundaryValueFamily) -> SpectralFlowResult:
    """Spectral flow of the family A_lambda by the partition definition.

    The partition refines the base grid _default_base_nodes until every
    subinterval has a threshold, to at most MAX_DEPTH levels, and every
    eigenvalue is located to width MU_TOL.  The integer is recomputed at
    doubled base-grid resolution, and a mismatch raises.
    """
    nodes = _default_base_nodes(fam)
    spectra: dict[float, SpectrumWindow] = {}
    value, partition, epsilons, data = _sflow_once(fam, nodes, spectra)
    doubled = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
    value2, _, _, _ = _sflow_once(fam, doubled, spectra)
    if value2 != value:
        raise RuntimeError(f"spectral flow is partition dependent: {value} vs {value2} at doubled resolution")
    return SpectralFlowResult(value, partition, epsilons, data)


def spectral_flow_shifted(fam: BoundaryValueFamily, delta: float) -> int:
    """Spectral flow of A + delta I, the operator with S + delta I in place of
    S, for delta >= 0 that leaves it equal to spectral_flow(fam).

    By the shift property, sf(A + delta) - sf(A) = N_1 - N_0, N_x being the
    number of eigenvalues of A_x in [-delta, -_ZERO_TOL); a ValueError names
    both counts where they differ.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    shifted = fam.shifted(delta)
    if delta > 0:
        ends = spectrum_window(fam, np.array([0.0, 1.0]), -delta - 0.05, 0.05)
        n0, n1 = (sum(m for mu, m in w.eigenvalues if -delta <= mu < -_ZERO_TOL) for w in ends)
        if n0 != n1:
            raise ValueError(f"delta={delta} too large: A has {n0} eigenvalues in [-delta, 0) "
                             f"at lambda=0 and {n1} at lambda=1, so the shift changes the flow")
    return spectral_flow(shifted).value


def _spectra_deviations(pairs):
    """max |va - vb| of each pair of spectra listed with multiplicity, inf
    where their sizes differ; the largest finite one; and whether every pair
    matches within 1e-7."""
    devs = [
        float(np.max(np.abs(va - vb), initial=0.0)) if va.size == vb.size else np.inf for va, vb in pairs
    ]
    return devs, max((d for d in devs if d < np.inf), default=0.0), all(d <= 1e-7 for d in devs)


@dataclass
class ConjugationReport:
    """Spectra and flows of A + delta0 versus the rotated-boundary family."""

    delta0: float
    lambdas: list
    max_spectrum_deviation: float
    sfl_shifted: int
    sfl_rotated: int
    spectra_match: bool
    passed: bool
    detail: list = field(default_factory=list)


def conjugation_spectrum_check(
    gamma1: LagrangianPath, gamma2: LagrangianPath, delta0: float
) -> ConjugationReport:
    """Check that A^{delta0} with boundary (g1, g2) and A^0 with boundary
    (g1, exp(-delta0 J) g2) have identical spectra and equal spectral flows.

    The conjugating multiplication by exp(delta0 J t) is orthogonal, so the
    spectra agree exactly; numerically they must match within 1e-7 in the
    window [-1.45, 1.45) that spectral_flow scans, at 11 equally spaced
    lambdas.
    """
    if abs(delta0) >= np.pi / 4:
        raise ValueError("|delta0| must be below pi/4")
    lam_grid = np.linspace(0.0, 1.0, 11)
    fam_shift = BoundaryValueFamily(gamma1, gamma2).shifted(delta0)
    fam_rot = BoundaryValueFamily(gamma1, RotatedPath(gamma2, -delta0))

    windows = [spectrum_window(fam, lam_grid, -_SF_WINDOW, _SF_WINDOW) for fam in (fam_shift, fam_rot)]
    spectra = [(wa.values(), wb.values()) for wa, wb in zip(*windows)]
    devs, worst, ok = _spectra_deviations(spectra)
    detail = [
        {"lambda": float(lam), "shifted": va.tolist(), "rotated": vb.tolist(), "deviation": dev}
        for lam, (va, vb), dev in zip(lam_grid, spectra, devs)
    ]

    sa = spectral_flow(fam_shift).value
    sb = spectral_flow(fam_rot).value
    passed = ok and sa == sb
    return ConjugationReport(
        delta0=float(delta0),
        lambdas=[float(x) for x in lam_grid],
        max_spectrum_deviation=worst,
        sfl_shifted=sa,
        sfl_rotated=sb,
        spectra_match=ok,
        passed=passed,
        detail=detail,
    )


@dataclass
class GapDiagnosticEntry:
    lam: float
    graph_gap: float
    boundary_distance: float
    ratio: float
    informative: bool


@dataclass
class GapDiagnosticReport:
    lam0: float
    grid_size: int
    entries: list
    ratios_bounded: bool
    gaps_decreasing: bool
    passed: bool


def _graph_matrix(fam: BoundaryValueFamily, lam: float, N: int) -> np.ndarray:
    """Basis [B; T B] of the graph of the operator discretized on an N-point
    grid: B maps the interior values and the boundary coordinates in
    gamma_1(lambda) and gamma_2(lambda) to the grid, and T is the forward
    difference J/h D plus the block diagonal of S_lambda at the nodes."""
    dim = 2 * fam.n
    h = 1.0 / (N - 1)
    B = scipy.linalg.block_diag(fam.gamma1.frame(lam).F, np.eye(dim * (N - 2)), fam.gamma2.frame(lam).F)
    # forward differences; the last row repeats the one before it
    D = np.eye(N, k=1) - np.eye(N)
    D[-1, -2:] = (-1.0, 1.0)
    # S one t at a time: an array of t may round differently
    S = [np.zeros((dim, dim)) if fam.S is None else fam.S(lam, t) for t in np.linspace(0.0, 1.0, N)]
    T = np.kron(D, standard_J(fam.n) / h) + scipy.linalg.block_diag(*S)
    G = np.vstack([B, T @ B])
    if not np.all(np.isfinite(G)):
        raise RuntimeError("singular discretization")
    return G


def discretized_gap_diagnostic(
    fam: BoundaryValueFamily,
    lam0: float,
    lam_list,
    N: int = 48,
) -> GapDiagnosticReport:
    """Finite-dimensional surrogate of the gap continuity of the operator family.

    The operator is discretized on an N-point grid (forward differences, the
    boundary conditions imposed through the projections onto gamma_1(lambda)
    and gamma_2(lambda)); graph subspaces are compared in the gap metric and
    the ratio to the boundary-projection distance is reported and must stay
    below 100.  lam_list is expected ordered with decreasing distance to lam0.
    """
    if N < 32:
        raise ValueError(f"grid size must be at least 32, got {N}")
    if np.size(lam_list) == 0:
        raise ValueError("lam_list is empty: an empty diagnostic would pass vacuously")

    def graph_frame(lam):
        return subspace_frame(_graph_matrix(fam, lam, N))

    def boundary_distance(lam):
        d1 = gap_distance(fam.gamma1.frame(lam), fam.gamma1.frame(lam0))
        d2 = gap_distance(fam.gamma2.frame(lam), fam.gamma2.frame(lam0))
        return d1 + d2

    G0 = graph_frame(lam0)
    entries = []
    for lam in lam_list:
        gap = gap_distance(graph_frame(lam), G0)
        bdry = boundary_distance(lam)
        informative = bdry > 1e-13
        ratio = gap / bdry if informative else np.inf
        entries.append(GapDiagnosticEntry(float(lam), float(gap), float(bdry), float(ratio), informative))

    ratios_bounded = all(e.ratio <= 100.0 for e in entries if e.informative)
    gaps = [e.graph_gap for e in entries]
    gaps_decreasing = all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
    return GapDiagnosticReport(
        lam0=float(lam0),
        grid_size=N,
        entries=entries,
        ratios_bounded=ratios_bounded,
        gaps_decreasing=gaps_decreasing,
        passed=ratios_bounded and gaps_decreasing,
    )
