"""Spectra and spectral flow of Ju' + S_lambda(t)u under Lagrangian boundary conditions.

Eigenvalues are counted, then located, by transfer-matrix shooting: mu is in
the spectrum of A_lambda exactly when the propagated subspace
Phi_{lambda,mu}(1) gamma_1(lambda) meets gamma_2(lambda).  For S identically
zero the transfer matrix is the closed-form rotation exp(-mu J), and for
t-independent S it is one matrix exponential per mu, so those spectra carry no
RK4 error.  Otherwise Phi(1) is the ordered product of the RK4 one-step
propagators (see propagator.py).  Each is a polynomial of degree 4 in mu whose
coefficients are polynomials in lambda, tabulated once per family; a lambda's
coefficients are one product of its lambda-powers with that table, and the
steps for a chunk of (mu, lambda) pairs are one matrix product with the
mu-powers per lambda in the chunk, multiplied pairwise in log depth.
The count is a Sturm-type fact (Arnold 1985; Beck & Malham 2015): every
eigenphase of C(mu) = W(Phi_mu(1) gamma_1) conj(W(gamma_2)) decreases as mu
grows and passes through 0 exactly at the eigenvalues, so the eigenphase sum
taken in [0, 2pi) jumps by 2pi per eigenvalue.  spectrum_window scans and
narrows the windows at up to 32 lambdas together, batching the detector over
mu and lambda, and each window comes out exactly as it would alone; a scalar
lambda is a stack of one, and the detector takes one lambda per mu.  Every
scan interval that holds eigenvalues is narrowed with the count as bracket
invariant, by Illinois secant steps (Dowell & Jarratt 1971) on the k-th root
of |det| for a bracket holding k of them, det being a smooth determinant that
vanishes on the spectrum, signed + at the lower end and - at the upper: near
a k-fold eigenvalue det ~ c (mu - mu*)^k, so that root is linear through it.
Halving takes over where the secant stalls.  The count's parity is checked
against det's sign changes.

The spectral flow follows the partition definition: on each parameter
subinterval an eigenvalue-free threshold epsilon is chosen and the counts of
eigenvalues in [0, epsilon] at the two ends are differenced.  Subintervals are
bisected until branch motion is small against the epsilon margins, level by
level: the windows at every new node of a level come from one stacked
spectrum_window call, so the detector calls of a level are shared by all its
nodes.  The whole computation is repeated at doubled grid resolution as a
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .families import SymmetricFamily
from .paths import LagrangianPath, RotatedPath
from .propagator import ordered_product, rk4_step_coefficients, rk4_steps_at
from .symplectic import gap_distance, souriau_stack, standard_J, subspace_frame

MU_TOL = 1e-10
_SF_WINDOW = 1.45
_SF_CORE = 1.0
_EPS_MAX = np.pi / 4
_MOTION_CAP = np.pi / 8
# a threshold's margin must beat the branch motion by this much, far above the
# locator error (below 5e-9 at tol 1e-8), so rounding never decides a refinement
_EPS_SLACK = 1e-6
_ZERO_TOL = 1e-9
DEFAULT_STEPS = 256
MAX_DEPTH = 40
# (mu, lambda) pairs propagated together: with the steps built as one matrix
# product from the coefficients, chunks of 16 matched or beat 4, 8, 32 and the
# whole batch for batches of 2-250 mu at one lambda, 256 steps, n = 1 and 2
# (2-vCPU Xeon, 4 MB L2, one BLAS thread: 250 mu at n = 2 in 3.2 ms against
# 7.6 ms for chunks of 4 and 4.4 ms for the whole batch); 16 pairs keep the
# steps near 0.5 MB at n = 2.  Pairs of several lambdas are sorted by lambda
# and chunked the same way, each chunk's steps built from one matrix product
# per lambda in it
_MU_CHUNK = 16
# lambdas whose windows spectrum_window locates together: the family builds
# the slices of a whole stack at once, and at 256 steps and n = 2 each holds
# 164 KB of RK4 coefficients (1.5 MB at 1024 steps and n = 3), its lambda's
# products with the family's table, so a longer lambda grid is located in
# stacks of this many; 32 covers the first level of a spectral flow on the
# default grid of 17 steps
_STACK = 32
# rows of the bracket table of the eigenvalue locator in spectrum_window, one
# column per bracket: its ends, its eigenvalue count, the eigenphase sum at
# lo, the (Illinois-scaled) determinant at both ends, the end the last secant
# step kept (-1 lo, 1 hi, 0 neither), 1 once two probes tol apart caught its
# eigenvalue, and the position of its window in the stack of lambdas
_LO, _HI, _CNT, _S_LO, _F_LO, _F_HI, _KEPT, _CAUGHT, _WIN = range(9)
# equal widening of both window edges per retry in _clean_windows
_EDGE_NUDGE = 0.0137
# the RK4 coefficient table of the latest (S, steps), as (S, steps, table):
# one slot for the whole process, since a table kept per family would live as
# long as its family (0.82 MB at n = 2, d_lambda = 2 and 256 steps)
_table: tuple | None = None


class EigenvalueAtWindowEdge(ValueError):
    """An endpoint of a requested mu-window is an eigenvalue; windows holds
    the positions of all such windows in the stack of lambdas (0 for one)."""

    def __init__(self, message: str, windows: tuple = (0,)):
        super().__init__(message)
        self.windows = windows


class EigenvalueCountMismatch(RuntimeError):
    """The eigenphase count of a mu-window contradicts the detector's sign
    changes, or cannot be made exact by refining the scan."""


@dataclass(frozen=True)
class _Slices:
    """Everything the detector needs at a set of lambdas, stacked along the
    first axis, built once per set.

    coeff is None for S = 0, the generators J S(lambda, 0) for t-independent
    S, and otherwise the coefficients (5, steps, 2n, 2n) of the RK4 step
    propagators as polynomials in mu, per lambda, from the family's table
    (see rk4_step_coefficients).
    """

    F1: np.ndarray
    F2: np.ndarray
    W2_conj: np.ndarray  # conj of the Souriau matrices W = U U^T of gamma_2
    coeff: object


def _coefficient_table(S: SymmetricFamily, steps: int) -> tuple:
    """The RK4 coefficient table of Phi' = (J S(lambda, t) - mu J) Phi (see
    rk4_step_coefficients), built once for the latest (S, steps)."""
    global _table
    if _table is None or _table[0] is not S or _table[1] != steps:
        _table = None  # free the old table before building the new
        h = 1.0 / steps
        ts = np.linspace(0.0, 1.0, steps + 1)
        J = standard_J(S.n)
        K = J @ S.lambda_coefficients(np.concatenate([ts, ts[:-1] + 0.5 * h]))
        _table = (S, steps, rk4_step_coefficients(K[:, : steps + 1], K[:, steps + 1 :], h, -J))
    return _table[2]


def _rk4_transfer_batch(C, mus, at):
    """Propagate Phi' = (JS(t) - mu J) Phi from identity, batched over mu, from
    the stacked coefficients C of the RK4 step propagators as polynomials in
    mu of several lambdas, at[i] being the position of mu[i]'s lambda.

    The pairs are taken in order of lambda, so that a chunk builds its steps
    from one matrix product per run of one lambda in it.
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
        if steps < 16:
            raise ValueError(f"steps must be at least 16, got {steps}")
        self.n = gamma1.n
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.S = None if (S is None or S.is_zero()) else S
        self.steps = steps
        self._J = standard_J(self.n)
        # only the latest lambda set's slices are kept, with its sorted
        # lambdas, one lambda alone being a set of one: the detector is
        # called for the lambdas of one stack of at most _STACK windows at a
        # time, spectral_flow caches the windows, and a slice holds the five
        # RK4 coefficient arrays (164 KB at 256 steps and n = 2), too much to
        # keep for every lambda ever seen; the family's table, from which
        # they are rebuilt by one product per power of mu, is kept apart
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
            # one product of a lambda's powers with the table per lambda and
            # power of mu, one row each, so no lambda's depend on the others
            T = _coefficient_table(self.S, self.steps)
            coeff = np.empty((len(lams), 5, T[0][0].size))
            pows = lams[:, None, None] ** np.arange(len(T[0]))
            for j, Tj in enumerate(T):
                np.matmul(pows[..., : len(Tj)], Tj.reshape(len(Tj), -1), out=coeff[:, j, None])
            coeff = coeff.reshape((len(lams), 5) + T[0].shape[1:])
        return _Slices(self.gamma1.frames(lams), F2, souriau_stack(F2).conj(), coeff)

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
            return scipy.linalg.expm(sl.coeff[at] - mus[:, None, None] * self._J)
        return _rk4_transfer_batch(sl.coeff, mus, at)

    def transfer(self, lam: float, mu: float) -> np.ndarray:
        return self._transfer_at(*self._slices(np.array([float(lam)])), np.array([float(mu)]))[0]

    def detector_batch(self, lam, mus):
        """Detector data for a batch of mu values, at one lambda or, with lam
        an array shaped like mus, at one lambda per mu.

        Returns (g, dets, phase_sums): the smallest singular value of
        [frame(Phi gamma_1) | frame(gamma_2)] per mu, the signed determinant
        det(Q^T J F2) vanishing exactly on the spectrum, and the sum of the
        eigenphases of C = W(Phi gamma_1) conj(W(gamma_2)), each in [0, 2pi).
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        sl, at = self._slices(np.full(mus.shape, lam, dtype=float))
        Phi = self._transfer_at(sl, at, mus)
        U, _, Vt = np.linalg.svd(Phi @ sl.F1[at], full_matrices=False)
        Q = U @ Vt  # orthonormal polar factor, a continuous function of Phi F1
        dets = np.linalg.det(np.swapaxes(Q, 1, 2) @ self._J @ sl.F2[at])
        UQ = Q[:, : self.n] + 1j * Q[:, self.n :]
        C = UQ @ np.swapaxes(UQ, 1, 2) @ sl.W2_conj[at]
        phases = np.angle(np.linalg.eigvals(C)) % (2.0 * np.pi)
        # an eigenphase phi of C is twice a principal angle psi between the two
        # subspaces, up to sign mod 2pi, and [Q | F2] has singular values
        # sqrt(1 -+ cos psi); the smallest is sqrt(2) sin(psi / 2)
        psi = np.min(np.minimum(phases / 2.0, np.pi - phases / 2.0), axis=1)
        return np.sqrt(2.0) * np.sin(psi / 2.0), dets, np.sum(phases, axis=1)


def eigen_detector(fam, lam: float, mu: float) -> float:
    """Smallest singular value of the shooting detector; zero on the spectrum."""
    return float(fam.detector_batch(lam, [mu])[0][0])


@dataclass(frozen=True)
class SpectrumWindow:
    """All eigenvalues of one operator A_lambda inside an open mu-window."""

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
    """Eigenvalues in [a, b] from the eigenphase sums at its ends, and the
    wrapped change of arg det C over it: the count is exact when that change
    is negative, i.e. when the true change lies in (-pi, 0)."""
    turns = np.rint((sum_b - sum_a) / (2.0 * np.pi))
    return turns.astype(int), sum_b - sum_a - 2.0 * np.pi * turns


def _finite_1d(x, name: str) -> np.ndarray:
    """x as a float array, rejected unless finite and a scalar or 1-D."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def spectrum_window(fam, lam, mu_min, mu_max, tol: float = MU_TOL):
    """Locate every eigenvalue of A_lambda in (mu_min, mu_max) with multiplicity.

    For a scalar lam, located as a stack of one, this returns one
    SpectrumWindow.  For a 1-D array of lambdas it returns a tuple of them,
    one per lambda, located together in stacks of at most _STACK lambdas:
    every detector call serves all the windows of a stack at once, and
    mu_min and mu_max may be arrays with one edge per lambda.  Each window is
    located exactly as it would be alone.

    The window is scanned at a step tied to the a-priori pi-spacing of the
    branch families, capped at pi/(4n) and shrunk with the size of S, so that
    arg det C changes by less than pi per scan interval; an interval whose
    wrapped change is not negative is halved.  The number of eigenvalues in
    each interval is the winding of the eigenphase sum.  Every interval that
    holds eigenvalues is narrowed to width tol with that count deciding each
    new bracket.  A bracket that holds k eigenvalues takes Illinois secant
    steps on |det|^(1/k) at its lower end and -|det|^(1/k) at its upper end,
    det being the detector's determinant, probed at x -+ tol/2, while the
    iterations left still let plain halving finish; it is halved, keeping
    each half that holds eigenvalues, once they would not or when det
    vanishes at both ends.  No window takes more than
    twice the levels of plain bisection.  Each final midpoint is reported
    with its count as multiplicity, and points closer than 1e-7 are merged.
    Between scan points that are not eigenvalues, the parity of the count must
    match the sign change of the smooth determinant, or
    EigenvalueCountMismatch is raised.  Window endpoints must not be
    eigenvalues (EigenvalueAtWindowEdge, which lists every window with one).
    """
    lam = _finite_1d(lam, "lam")
    lams = np.atleast_1d(lam)
    los = np.full(lams.shape, _finite_1d(mu_min, "mu_min"))
    his = np.full(lams.shape, _finite_1d(mu_max, "mu_max"))
    if not np.all(los < his):
        raise ValueError("empty mu-window")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    windows, edges = [], []
    for s in range(0, lams.size, _STACK):
        part = slice(s, s + _STACK)
        try:
            windows.extend(_locate(fam, lams[part], los[part], his[part], tol))
        except EigenvalueAtWindowEdge as err:
            edges.append((err, [s + k for k in err.windows]))
    if edges:
        raise EigenvalueAtWindowEdge(str(edges[0][0]), tuple(k for _, ks in edges for k in ks))
    return tuple(windows) if lam.ndim else windows[0]


def _locate(fam, lams, los, his, tol):
    """The windows of spectrum_window at a stack of at most _STACK lambdas,
    with edges los and his, as a tuple."""

    def detect(w, mus):  # the detector at the lambdas of windows w
        return fam.detector_batch(lams[w], mus)

    step = min(np.pi / 8.0, np.pi / (4.0 * fam.n)) / (1.0 + min(fam.s_norm, 3.0))
    npts = [max(9, int(np.ceil((b - a) / step)) + 1) for a, b in zip(los.tolist(), his.tolist())]
    grid = np.concatenate([np.linspace(a, b, k) for a, b, k in zip(los.tolist(), his.tolist(), npts)])
    win = np.repeat(np.arange(lams.size), npts)  # the window of each scan point
    g, dets, sums = detect(win, grid)

    last = np.cumsum(npts) - 1
    ends = np.stack([last + 1 - np.array(npts), last], axis=1)  # each window's first and last point
    edge = g[ends] <= 10 * tol
    if edge.any():
        k, side = np.argwhere(edge)[0]
        raise EigenvalueAtWindowEdge(
            f"window endpoint mu={grid[ends[k, side]]:.12g} is an eigenvalue at lambda={lams[k]:.6g}; "
            "shift the window",
            tuple(np.flatnonzero(edge.any(axis=1)).tolist()),
        )

    def mismatch(a, b, k, why):
        return EigenvalueCountMismatch(f"{why} at lambda={lams[k]:.6g} on mu in [{a:.12g}, {b:.12g}]")

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
        if k == prev and mu - last_mu < 1e-7:
            eigenvalues[-1] = (eigenvalues[-1][0], eigenvalues[-1][1] + int(mult))
        else:
            eigenvalues.append((float(mu), int(mult)))
        prev, last_mu = k, mu
    return tuple(
        SpectrumWindow(float(x), float(a), float(c), tuple(ev))
        for x, a, c, ev in zip(lams, los, his, found)
    )


def _clean_windows(fams, lams: np.ndarray, lo: float, hi: float, tol: float = MU_TOL) -> list:
    """spectrum_window of each family over shared windows at a 1-D array of
    lambdas, widened until no endpoint is an eigenvalue of any of them; only
    the windows of the lambdas whose edge failed are widened."""
    shift = np.zeros(len(lams))
    for _ in range(60):
        try:
            return [spectrum_window(fam, lams, lo - shift, hi + shift, tol) for fam in fams]
        except EigenvalueAtWindowEdge as err:
            failed = list(err.windows)
            shift[failed] += _EDGE_NUDGE
    raise RuntimeError(f"could not find an eigenvalue-free window boundary at lambda={lams[failed[0]]}")


@dataclass
class SpectralFlowResult:
    """Spectral flow integer with the partition, thresholds and branch data."""

    value: int
    partition: list
    epsilons: list
    branch_data: list = field(default_factory=list)


def _choose_epsilon(values_a: np.ndarray, values_b: np.ndarray, motion: float):
    """An eigenvalue-free threshold in (0, pi/4] with margin above the motion
    by more than _EPS_SLACK.

    Walls are the absolute eigenvalue positions up to pi/4 plus the reach of
    one admissible step, so a branch just outside the window cannot sneak
    across epsilon.  Returns (epsilon, margin) or None.
    """
    pts = np.abs(np.concatenate([values_a, values_b]))
    pts = np.sort(pts[pts <= _EPS_MAX + _MOTION_CAP + 0.05])
    walls = np.concatenate([[0.0], pts])
    best = None
    for a, b in zip(walls, np.append(walls[1:], np.inf)):
        lo, hi = max(a, 0.0), min(b, _EPS_MAX)
        if hi <= lo:
            continue
        eps = 0.5 * (lo + hi)
        margin = min(eps - a, b - eps)
        if best is None or margin > best[1]:
            best = (eps, margin)
    if best is None or best[1] <= max(motion + _EPS_SLACK, 1e-3):
        return None
    return best


def _interval_contribution(Ea: SpectrumWindow, Eb: SpectrumWindow):
    """Count difference over one subinterval, or None if it must be refined."""
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
    if m > _MOTION_CAP:
        return None
    picked = _choose_epsilon(A, B, m)
    if picked is None:
        return None
    eps = picked[0]
    return Eb.count_between(-_ZERO_TOL, eps) - Ea.count_between(-_ZERO_TOL, eps), float(eps)


def _sflow_once(fam, base_nodes, spectra: dict, tol: float, max_depth: int):
    """Refine the subintervals of base_nodes level by level: the windows at
    every new node of a level are located in one stacked spectrum_window
    call, then each open subinterval either gets its threshold or is halved."""
    segments = []
    pending = list(zip(base_nodes[:-1], base_nodes[1:]))
    for depth in range(max_depth + 1):
        new = [lam for lam in dict.fromkeys(x for seg in pending for x in seg) if lam not in spectra]
        if new:
            (windows,) = _clean_windows((fam,), np.array(new), -_SF_WINDOW, _SF_WINDOW, tol)
            spectra.update(zip(new, windows))
        refine = []
        for a, b in pending:
            r = _interval_contribution(spectra[a], spectra[b])
            if r is None:
                refine.append((a, b))
            else:
                segments.append((a, b, r[0], r[1]))
        if not refine:
            break
        if depth >= max_depth:
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
    hints = set(np.linspace(0.0, 1.0, 17)) | set(fam.breakpoint_hints())
    return np.array(sorted(hints))


def spectral_flow(
    fam: BoundaryValueFamily,
    base_grid=None,
    *,
    tol: float = MU_TOL,
    max_depth: int = MAX_DEPTH,
) -> SpectralFlowResult:
    """Spectral flow of the family A_lambda by the partition definition.

    The partition refines base_grid (by default 17 equal steps plus the
    boundary paths' breakpoints) until every subinterval has a threshold;
    tol is the eigenvalue locator's tolerance and max_depth caps the
    refinement.  The integer is recomputed at doubled base-grid resolution,
    and a mismatch raises.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if base_grid is None:
        nodes = _default_base_nodes(fam)
    else:
        nodes = np.unique(_finite_1d(base_grid, "base_grid"))
        if not nodes.size or abs(nodes[0]) > 1e-15 or abs(nodes[-1] - 1.0) > 1e-15:
            raise ValueError("base grid must start at 0 and end at 1")
    spectra: dict[float, SpectrumWindow] = {}
    value, partition, epsilons, data = _sflow_once(fam, nodes, spectra, tol, max_depth)
    doubled = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
    value2, _, _, _ = _sflow_once(fam, doubled, spectra, tol, max_depth)
    if value2 != value:
        raise RuntimeError(f"spectral flow is partition dependent: {value} vs {value2} at doubled resolution")
    return SpectralFlowResult(value, partition, epsilons, data)


def spectral_flow_shifted(fam: BoundaryValueFamily, delta: float) -> int:
    """Spectral flow of A + delta I, the operator with S + delta I in place of
    S; equals spectral_flow(fam) for small delta >= 0.

    Raises if some partition node has an eigenvalue inside [-delta, 0), in
    which case the shift may drag a crossing over the threshold.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    result = spectral_flow(fam.shifted(delta))
    if delta > 0:
        (windows,) = _clean_windows((fam,), np.array(result.partition), -delta - 0.05, 0.05)
        for lam, window in zip(result.partition, windows):
            for mu, mult in window.eigenvalues:
                if -delta <= mu < -_ZERO_TOL:
                    raise ValueError(
                        f"delta={delta} too large: eigenvalue mu={mu:.9g} of A at "
                        f"lambda={lam:.6g} lies in [-delta, 0)"
                    )
    return result.value


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
    window (-1.45, 1.45) that spectral_flow scans, at 11 equally spaced
    lambdas.
    """
    if abs(delta0) >= np.pi / 4:
        raise ValueError("|delta0| must be below pi/4")
    lam_grid = np.linspace(0.0, 1.0, 11)
    fam_shift = BoundaryValueFamily(gamma1, gamma2).shifted(delta0)
    fam_rot = BoundaryValueFamily(gamma1, RotatedPath(gamma2, -delta0))

    windows = _clean_windows((fam_shift, fam_rot), lam_grid, -_SF_WINDOW, _SF_WINDOW)
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
