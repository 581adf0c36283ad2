"""Spectra and spectral flow of Ju' + S_lambda(t)u under Lagrangian boundary conditions.

Eigenvalues are located by transfer-matrix shooting: mu is in the spectrum of
A_lambda exactly when the propagated subspace Phi_{lambda,mu}(1) gamma_1(lambda)
meets gamma_2(lambda), detected through the smallest singular value of the
concatenated frame matrix.  For S identically zero the transfer matrix is the
closed-form rotation exp(-mu J), and for t-independent S it is one matrix
exponential per mu, so those spectra carry no RK4 error.  Otherwise Phi(1) is
the ordered product of the RK4 one-step propagators (see propagator.py): all
steps are built at once for a small chunk of mu values and multiplied pairwise
in log depth, the same arithmetic as stepping, reassociated.
Detector evaluations are batched over mu, and roots are pinned by vectorized
bisection on a smooth determinant that changes sign at odd-order crossings,
with dip polishing for even-order ones.

The spectral flow follows the partition definition: on each parameter
subinterval an eigenvalue-free threshold epsilon is chosen and the counts of
eigenvalues in [0, epsilon] at the two ends are differenced.  Subintervals are
bisected until branch motion is small against the epsilon margins, and the
whole computation is repeated at doubled grid resolution as a consistency
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .families import SymmetricFamily
from .paths import LagrangianPath, RotatedPath
from .propagator import ordered_product, rk4_step_propagators
from .symplectic import gap_distance, standard_J, subspace_frame

MU_TOL = 1e-10
MULT_RTOL = 1e-6
_DIP_CUT = 0.35
_SF_WINDOW = 1.45
_SF_CORE = 1.0
_EPS_MAX = np.pi / 4
_MOTION_CAP = np.pi / 8
_ZERO_TOL = 1e-9
DEFAULT_STEPS = 256
MAX_DEPTH = 40
# mu values propagated together: at 256 steps and n = 2, chunks of 4 beat 2, 8
# and 16 for batches of 8-250 mu (2-vCPU Xeon, 4 MB L2, one BLAS thread: 250 mu
# in 24 ms against 30-42 ms); 4 mu keep the step arrays near 1 MB in total
_MU_CHUNK = 4
# equal widening of both window edges per retry in _clean_windows
_EDGE_NUDGE = 0.0137


class EigenvalueAtWindowEdge(ValueError):
    """An endpoint of a requested mu-window is an eigenvalue."""


def _rk4_transfer_batch(nodes, mids, mus, J, h):
    """Propagate Phi' = (JS(t) - mu J) Phi from identity, batched over mu."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    out = np.empty((len(mus),) + J.shape)
    for s in range(0, len(mus), _MU_CHUNK):
        muJ = mus[s : s + _MU_CHUNK, None, None, None] * J
        out[s : s + _MU_CHUNK] = ordered_product(rk4_step_propagators(nodes - muJ, mids - muJ, h))
    return out


def transfer_matrix(S_of_t, n: int, mu: float, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Phi_mu(1) for Ju' + S(t)u = mu u, i.e. Phi' = -J(mu I - S(t)) Phi.

    S_of_t is a callable t -> symmetric 2n x 2n matrix, or None for S = 0, in
    which case the closed form exp(-mu J) = cos(mu) I - sin(mu) J is returned.
    """
    if steps < 16:
        raise ValueError(f"steps must be at least 16, got {steps}")
    J = standard_J(n)
    if S_of_t is None:
        return np.cos(mu) * np.eye(2 * n) - np.sin(mu) * J
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    nodes = np.array([J @ S_of_t(t) for t in ts])
    mids = np.array([J @ S_of_t(t + 0.5 * h) for t in ts[:-1]])
    return _rk4_transfer_batch(nodes, mids, [mu], J, h)[0]


class BoundaryValueFamily:
    """The operators A_lambda u = Ju' + S_lambda(t)u with u(0) in gamma_1(lambda),
    u(1) in gamma_2(lambda).

    S is any object mapping (lambda, t) to symmetric 2n x 2n matrices with a
    sup_norm() method (see SymmetricFamily), or None for the zero family.
    """

    def __init__(self, gamma1: LagrangianPath, gamma2: LagrangianPath, S=None, steps: int = DEFAULT_STEPS):
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
        self._stages: dict[float, tuple] = {}
        self._t_const = self.S is not None and getattr(self.S, "t_independent", lambda: False)()
        self._gen: dict[float, np.ndarray] = {}
        if self.S is not None:
            for lam in (0.0, 0.5, 1.0):
                for t in (0.0, 0.33, 1.0):
                    M = self.S(lam, t)
                    if np.linalg.norm(M - M.T, 2) > 1e-12:
                        raise ValueError(f"S is not symmetric at (lambda, t)=({lam}, {t})")

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

    def _stage_data(self, lam: float):
        got = self._stages.get(lam)
        if got is None:
            h = 1.0 / self.steps
            ts = np.linspace(0.0, 1.0, self.steps + 1)
            nodes = self._J @ self.S(lam, ts)
            mids = self._J @ self.S(lam, ts[:-1] + 0.5 * h)
            got = (nodes, mids, h)
            self._stages[lam] = got
        return got

    def _generator(self, lam: float) -> np.ndarray:
        got = self._gen.get(lam)
        if got is None:
            got = self._J @ self.S(lam, 0.0)
            self._gen[lam] = got
        return got

    def _transfer_batch(self, lam: float, mus: np.ndarray) -> np.ndarray:
        if self.S is None:
            eye = np.eye(2 * self.n)
            return np.cos(mus)[:, None, None] * eye - np.sin(mus)[:, None, None] * self._J
        if self._t_const:
            # constant-coefficient system: exact matrix exponential, no drift
            return scipy.linalg.expm(self._generator(lam) - mus[:, None, None] * self._J)
        nodes, mids, h = self._stage_data(lam)
        return _rk4_transfer_batch(nodes, mids, mus, self._J, h)

    def transfer(self, lam: float, mu: float) -> np.ndarray:
        return self._transfer_batch(lam, np.atleast_1d(float(mu)))[0]

    def detector_batch(self, lam: float, mus):
        """Detector data at one lambda for a batch of mu values.

        Returns (svals, dets): the singular values of
        [frame(Phi gamma_1) | frame(gamma_2)] per mu, and the signed
        determinant det(Q^T J F2) vanishing exactly on the spectrum.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        Phi = self._transfer_batch(lam, mus)
        B = Phi @ self.gamma1.frame(lam).F
        U, _, Vt = np.linalg.svd(B, full_matrices=False)
        Q = U @ Vt  # orthonormal polar factor, a continuous function of B
        F2 = self.gamma2.frame(lam).F
        M = np.concatenate([Q, np.broadcast_to(F2, Q.shape)], axis=2)
        svals = np.linalg.svd(M, compute_uv=False)
        dets = np.linalg.det(np.swapaxes(Q, 1, 2) @ self._J @ F2)
        return svals, dets


def eigen_detector(fam, lam: float, mu: float) -> float:
    """Smallest singular value of the shooting detector; zero on the spectrum."""
    svals, _ = fam.detector_batch(lam, [mu])
    return float(svals[0, -1])


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


def _bisect_roots(fam, lam: float, los, his, dlos, tol: float):
    """Vectorized bisection of sign-change brackets of the determinant."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    signs = np.sign(dlos)
    iters = int(np.ceil(np.log2(max(np.max(his - los), tol) / tol))) + 1
    for _ in range(iters):
        mids = 0.5 * (los + his)
        _, dm = fam.detector_batch(lam, mids)
        left = np.sign(dm) == signs
        los = np.where(left, mids, los)
        his = np.where(left, his, mids)
    return 0.5 * (los + his)


def spectrum_window(fam, lam: float, mu_min: float, mu_max: float, tol: float = MU_TOL) -> SpectrumWindow:
    """Locate every eigenvalue of A_lambda in (mu_min, mu_max) with multiplicity.

    Scanning at a step tied to the a-priori pi-spacing of the branch families
    (shrunk with the size of S), sign changes of the smooth determinant are
    bisected to tol and detector dips are polished by bounded minimization; a
    finer rescan around each root guards against close pairs.  Window
    endpoints must not be eigenvalues.
    """
    if not mu_min < mu_max:
        raise ValueError("empty mu-window")
    step = (np.pi / 8.0) / (1.0 + min(fam.s_norm, 3.0))
    npts = max(9, int(np.ceil((mu_max - mu_min) / step)) + 1)
    grid = np.linspace(mu_min, mu_max, npts)
    # one scan point past each edge, so the edge points get the dip test too
    pad = grid[1] - grid[0]
    grid = np.concatenate([[mu_min - pad], grid, [mu_max + pad]])
    svals, dets = fam.detector_batch(lam, grid)
    g = svals[:, -1]

    for idx in (1, -2):
        if g[idx] <= 10 * tol:
            raise EigenvalueAtWindowEdge(
                f"window endpoint mu={grid[idx]:.12g} is an eigenvalue at lambda={lam:.6g}; "
                "shift the window"
            )

    roots: list[float] = []

    def add_roots(cands):
        added = []
        for mu in np.atleast_1d(cands):
            if mu_min < mu < mu_max and all(abs(mu - r) >= 1e-7 for r in roots):
                roots.append(float(mu))
                added.append(float(mu))
        return added

    def known_root_within(lo, hi, extra=()):
        return any(lo - 1e-12 <= r <= hi + 1e-12 for r in list(roots) + list(extra))

    def polish_dip(lo, hi):
        res = scipy.optimize.minimize_scalar(
            lambda mu: float(fam.detector_batch(lam, [mu])[0][0, -1]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": tol},
        )
        return float(res.x)

    # sign changes of the smooth determinant: odd-order roots; the two padded
    # intervals lie outside the window and are not bisected
    changes = dets[:-1] * dets[1:] < 0
    inside = np.nonzero(changes[1:-1])[0] + 1
    if inside.size:
        add_roots(_bisect_roots(fam, lam, grid[inside], grid[inside + 1], dets[inside], tol))

    # dips without a sign change: even-order roots (higher multiplicities); a
    # sign change beside a dip is an odd-order root, bisected above if inside
    for i in range(1, len(grid) - 1):
        if g[i] < _DIP_CUT and g[i] <= g[i - 1] and g[i] <= g[i + 1]:
            if changes[i - 1] or changes[i] or known_root_within(grid[i - 1], grid[i + 1]):
                continue
            add_roots([polish_dip(grid[i - 1], grid[i + 1])])

    # local rescan around every root (including newly found ones): a close
    # neighbour of any order may have been masked by the coarse grid
    pending = list(roots)
    visited = set()
    while pending:
        r = pending.pop()
        key = round(r, 8)
        if key in visited:
            continue
        visited.add(key)
        lo = max(mu_min, r - step)
        hi = min(mu_max, r + step)
        fine = np.linspace(lo, hi, 33)
        fstep = fine[1] - fine[0]
        svf, dfine = fam.detector_batch(lam, fine)
        gf = svf[:, -1]
        keep = [
            j
            for j in range(32)
            if not known_root_within(fine[j], fine[j + 1]) and dfine[j] * dfine[j + 1] < 0
        ]
        if keep:
            pending.extend(
                add_roots(
                    _bisect_roots(fam, lam, fine[keep], fine[np.array(keep) + 1], dfine[keep], tol)
                )
            )
        dip_cut = max(10.0 * fstep, 0.02)
        for j in range(1, 32):
            if gf[j] < dip_cut and gf[j] <= gf[j - 1] and gf[j] <= gf[j + 1]:
                if known_root_within(fine[j - 1], fine[j + 1]):
                    continue
                cand = polish_dip(fine[j - 1], fine[j + 1])
                # non-roots are dropped by the multiplicity filter below, but
                # only candidates that are actual minima are worth keeping
                if float(fam.detector_batch(lam, [cand])[0][0, -1]) < 1e-5:
                    pending.extend(add_roots([cand]))

    roots = sorted(r for r in roots if mu_min < r < mu_max)
    eigenvalues = []
    if roots:
        rs, _ = fam.detector_batch(lam, roots)
        for r, sv in zip(roots, rs):
            mult = int(np.sum(sv < MULT_RTOL * sv[0]))
            if mult >= 1:
                eigenvalues.append((float(r), mult))
    return SpectrumWindow(float(lam), float(mu_min), float(mu_max), tuple(eigenvalues))


def _clean_windows(fams, lam: float, lo: float, hi: float, tol: float = MU_TOL) -> list:
    """spectrum_window of each family over one shared window, widened until no
    endpoint is an eigenvalue of any of them."""
    shift = 0.0
    for _ in range(60):
        try:
            return [spectrum_window(fam, lam, lo - shift, hi + shift, tol) for fam in fams]
        except EigenvalueAtWindowEdge:
            shift += _EDGE_NUDGE
    raise RuntimeError(f"could not find an eigenvalue-free window boundary at lambda={lam}")


@dataclass
class SpectralFlowResult:
    """Spectral flow integer with the partition, thresholds and branch data."""

    value: int
    partition: list
    epsilons: list
    branch_data: list = field(default_factory=list)


def _choose_epsilon(values_a: np.ndarray, values_b: np.ndarray, motion: float):
    """An eigenvalue-free threshold in (0, pi/4] with margin above the motion.

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
    if best is None or best[1] <= max(motion, 1e-3):
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
    def spec_at(lam):
        got = spectra.get(lam)
        if got is None:
            (got,) = _clean_windows((fam,), lam, -_SF_WINDOW, _SF_WINDOW, tol)
            spectra[lam] = got
        return got

    segments = []

    def visit(a, b, depth):
        r = _interval_contribution(spec_at(a), spec_at(b))
        if r is None:
            if depth >= max_depth:
                raise RuntimeError(
                    f"failed to separate eigenvalue branches on [{a:.12g}, {b:.12g}]"
                )
            m = 0.5 * (a + b)
            visit(a, m, depth + 1)
            visit(m, b, depth + 1)
        else:
            segments.append((a, b, r[0], r[1]))

    for a, b in zip(base_nodes[:-1], base_nodes[1:]):
        visit(a, b, 0)

    value = int(sum(s[2] for s in segments))
    partition = [segments[0][0]] + [s[1] for s in segments]
    epsilons = [s[3] for s in segments]
    branch_data = [spectra[lam] for lam in partition]
    return value, partition, epsilons, branch_data


def _default_base_nodes(fam, resolution: int = 17):
    hints = set(np.linspace(0.0, 1.0, resolution)) | set(fam.breakpoint_hints())
    return np.array(sorted(hints))


def spectral_flow(
    fam: BoundaryValueFamily,
    base_grid=None,
    *,
    tol: float = MU_TOL,
    max_depth: int = MAX_DEPTH,
    check: bool = True,
) -> SpectralFlowResult:
    """Spectral flow of the family A_lambda by the partition definition.

    With check=True the integer is recomputed at doubled base-grid resolution
    and a mismatch raises.
    """
    if base_grid is None:
        nodes = _default_base_nodes(fam)
    else:
        nodes = np.array(sorted(set(float(x) for x in np.asarray(base_grid, dtype=float))))
        if abs(nodes[0]) > 1e-15 or abs(nodes[-1] - 1.0) > 1e-15:
            raise ValueError("base grid must start at 0 and end at 1")
    spectra: dict[float, SpectrumWindow] = {}
    value, partition, epsilons, data = _sflow_once(fam, nodes, spectra, tol, max_depth)
    if check:
        doubled = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
        value2, _, _, _ = _sflow_once(fam, doubled, spectra, tol, max_depth)
        if value2 != value:
            raise RuntimeError(
                f"spectral flow is partition dependent: {value} vs {value2} at doubled resolution"
            )
    return SpectralFlowResult(value, partition, epsilons, data)


def spectral_flow_shifted(
    fam: BoundaryValueFamily,
    delta: float,
    base_grid=None,
    *,
    tol: float = MU_TOL,
    max_depth: int = MAX_DEPTH,
    check: bool = True,
) -> int:
    """Spectral flow of A + delta I, the operator with S + delta I in place of
    S; equals spectral_flow(fam) for small delta >= 0.

    Raises if some partition node has an eigenvalue inside [-delta, 0), in
    which case the shift may drag a crossing over the threshold.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    result = spectral_flow(
        fam.shifted(delta), base_grid, tol=tol, max_depth=max_depth, check=check
    )
    if delta > 0:
        for lam in result.partition:
            (window,) = _clean_windows((fam,), lam, -delta - 0.05, 0.05, tol)
            for mu, mult in window.eigenvalues:
                if -delta <= mu < -_ZERO_TOL:
                    raise ValueError(
                        f"delta={delta} too large: eigenvalue mu={mu:.9g} of A at "
                        f"lambda={lam:.6g} lies in [-delta, 0)"
                    )
    return result.value


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
    gamma1: LagrangianPath,
    gamma2: LagrangianPath,
    delta0: float,
    lam_grid=None,
    window: float = 1.45,
    tol: float = 1e-7,
) -> ConjugationReport:
    """Check that A^{delta0} with boundary (g1, g2) and A^0 with boundary
    (g1, exp(-delta0 J) g2) have identical spectra and equal spectral flows.

    The conjugating multiplication by exp(delta0 J t) is orthogonal, so the
    spectra agree exactly; numerically they must match within tol window by
    window.
    """
    if abs(delta0) >= np.pi / 4:
        raise ValueError("|delta0| must be below pi/4")
    if lam_grid is None:
        lam_grid = np.linspace(0.0, 1.0, 11)
    fam_shift = BoundaryValueFamily(gamma1, gamma2).shifted(delta0)
    fam_rot = BoundaryValueFamily(gamma1, RotatedPath(gamma2, -delta0))

    detail = []
    worst = 0.0
    ok = True
    for lam in lam_grid:
        wa, wb = _clean_windows((fam_shift, fam_rot), lam, -window, window)
        va, vb = wa.values(), wb.values()
        if va.size != vb.size:
            ok = False
            dev = np.inf
        else:
            dev = float(np.max(np.abs(va - vb))) if va.size else 0.0
            worst = max(worst, dev)
            if dev > tol:
                ok = False
        detail.append(
            {"lambda": float(lam), "shifted": va.tolist(), "rotated": vb.tolist(), "deviation": dev}
        )

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


def discretized_gap_diagnostic(
    fam: BoundaryValueFamily,
    lam0: float,
    lam_list,
    N: int = 48,
    ratio_bound: float = 100.0,
) -> GapDiagnosticReport:
    """Finite-dimensional surrogate of the gap continuity of the operator family.

    The operator is discretized on an N-point grid (forward differences, the
    boundary conditions imposed through the projections onto gamma_1(lambda)
    and gamma_2(lambda)); graph subspaces are compared in the gap metric and
    the ratio to the boundary-projection distance is reported.  lam_list is
    expected ordered with decreasing distance to lam0.
    """
    if N < 32:
        raise ValueError(f"grid size must be at least 32, got {N}")
    n = fam.n
    dim = 2 * n
    h = 1.0 / (N - 1)
    ts = np.linspace(0.0, 1.0, N)
    J = standard_J(n)

    def graph_frame(lam):
        F1 = fam.gamma1.frame(lam).F
        F2 = fam.gamma2.frame(lam).F
        ncols = dim * (N - 2) + 2 * n
        B = np.zeros((dim * N, ncols))
        B[:dim, :n] = F1
        for k in range(1, N - 1):
            B[k * dim : (k + 1) * dim, n + (k - 1) * dim : n + k * dim] = np.eye(dim)
        B[(N - 1) * dim :, n + (N - 2) * dim :] = F2
        T = np.zeros((dim * N, dim * N))
        for k in range(N - 1):
            Sk = fam.S(lam, ts[k]) if fam.S is not None else 0.0
            T[k * dim : (k + 1) * dim, k * dim : (k + 1) * dim] = -J / h + Sk
            T[k * dim : (k + 1) * dim, (k + 1) * dim : (k + 2) * dim] = J / h
        Send = fam.S(lam, ts[-1]) if fam.S is not None else 0.0
        T[(N - 1) * dim :, (N - 2) * dim : (N - 1) * dim] = -J / h
        T[(N - 1) * dim :, (N - 1) * dim :] = J / h + Send
        G = np.vstack([B, T @ B])
        if not np.all(np.isfinite(G)):
            raise RuntimeError("singular discretization")
        return subspace_frame(G)

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

    ratios_bounded = all(e.ratio <= ratio_bound for e in entries if e.informative)
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
