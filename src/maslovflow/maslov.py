"""Maslov indices of loops, paths and pairs of Lagrangian paths.

The pair index is computed from the relative unitary
C(lambda) = W1(lambda) conj(W2(lambda)) of the two Souriau matrices:
crossings of an eigenphase through 0 (eigenvalue 1 of C) are exactly the
nontrivial intersections gamma_1(lambda) cap gamma_2(lambda), and the signed
count of those crossings (+1 for an eigenphase increasing through 0) is the
index.  The count is the winding of the eigenphase sum Sigma(lambda), each
eigenphase taken in [-PHASE_TOL, 2pi - PHASE_TOL), so a phase at 0 has
already crossed: the half-closed convention of the spectral-flow side, which
counts the same way (Arnold, "Sturm theorems and symplectic geometry", 1985).
An eigenphase increasing through 0 makes Sigma jump by -2pi, so a parameter
segment [a, b] holds -round((Sigma(b) - Sigma(a)) / 2pi) net crossings while
the eigenphases together move by less than pi inside it.  Segments are
bisected until ||C(b) - C(a)|| <= min(0.15, 3/n), at which the endpoint
spectra match closely enough (Bhatia & Davis 1984) for that to hold.  The
winding of det W along a loop is the same count plus the change of Sigma
from end to end.

Non-admissible pairs (endpoint intersections nontrivial) are rotated:
the index is that of (gamma_1, exp(-Theta J) gamma_2) for a small stable
Theta > 0 supplied by perturbation_theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import ConstantPath, LagrangianPath, RotatedPath
from .symplectic import LagrangianFrame, gap_distance, intersection_dimension, l0_frame, norm2, rotate

PHASE_TOL = 1e-9
_DC_CAP = 0.15
_LOC_TOL = 1e-9
DEFAULT_TOL = 1e-8
MAX_DEPTH = 40


class UnresolvedCrossing(RuntimeError):
    """Crossing counting hit its bisection depth cap on some segment."""


@dataclass(frozen=True)
class CrossingRecord:
    """One signed crossing event of a pair of Lagrangian paths."""

    lambda_star: float
    sign: int
    multiplicity: int


def _eigenphases(C: np.ndarray) -> np.ndarray:
    """Eigenvalue phases of a unitary matrix, in (-pi, pi]."""
    return np.angle(np.linalg.eigvals(C))


class _PairCounter:
    """Signed eigenphase-crossing counter for one pair of paths."""

    def __init__(self, g1: LagrangianPath, g2: LagrangianPath, max_depth: int = MAX_DEPTH):
        if g1.n != g2.n:
            raise ValueError(f"half-dimension mismatch: {g1.n} vs {g2.n}")
        self.g1 = g1
        self.g2 = g2
        self.max_depth = max_depth
        # the end spectra of an accepted segment match within 2 arcsin(cap / 2)
        # per eigenphase (Bhatia & Davis), n of which stay below pi
        self.cap = min(_DC_CAP, 3.0 / g1.n)
        self._C: dict[float, np.ndarray] = {}
        self._sums: dict[float, float] = {}

    def relative_unitary(self, lam: float) -> np.ndarray:
        got = self._C.get(lam)
        if got is None:
            got = self.g1.souriau_matrix(lam) @ self.g2.souriau_matrix(lam).conj()
            self._C[lam] = got
        return got

    def phase_sum(self, lam: float) -> float:
        """Sum of the eigenphases of C(lambda), each in [-PHASE_TOL, 2pi - PHASE_TOL)."""
        got = self._sums.get(lam)
        if got is None:
            p = _eigenphases(self.relative_unitary(lam))
            got = float(np.sum(np.where(p < -PHASE_TOL, p + 2.0 * np.pi, p)))
            self._sums[lam] = got
        return got

    def count(self, a: float, b: float, depth: int = 0) -> int:
        """Net signed crossings of eigenphases through 0 on [a, b]."""
        if norm2(self.relative_unitary(b) - self.relative_unitary(a)) <= self.cap:
            return -int(np.rint((self.phase_sum(b) - self.phase_sum(a)) / (2.0 * np.pi)))
        if depth >= self.max_depth:
            raise UnresolvedCrossing(
                f"unresolved crossing near lambda in [{a:.12g}, {b:.12g}] "
                f"after {self.max_depth} bisections"
            )
        m = 0.5 * (a + b)
        return self.count(a, m, depth + 1) + self.count(m, b, depth + 1)

    def initial_nodes(self) -> np.ndarray:
        nodes = set(np.asarray(self.g1.sample_grid)) | set(np.asarray(self.g2.sample_grid))
        return np.array(sorted(nodes))

    def total(self) -> int:
        nodes = self.initial_nodes()
        return int(sum(self.count(a, b) for a, b in zip(nodes[:-1], nodes[1:])))


def perturbation_theta(g1: LagrangianPath, g2: LagrangianPath) -> float:
    """A stable rotation angle Theta > 0 regularizing the endpoint intersections.

    Theta is at most pi/8 and below half the smallest nonzero relative
    eigenphase at either endpoint, so gamma_1(e) and exp(-Theta' J) gamma_2(e)
    are transversal for every 0 < |Theta'| <= Theta.  A geometric ladder of
    test angles is verified (intersection rank at DEFAULT_TOL), and Theta is
    accepted only if the pair index computed at Theta and Theta/2 agree;
    otherwise Theta shrinks until 1e-6.
    """
    return _regularized(g1, g2, np.pi / 8, DEFAULT_TOL, MAX_DEPTH)[0]


def _regularized(g1: LagrangianPath, g2: LagrangianPath, theta_max: float, tol: float, max_depth: int):
    """Theta as documented at perturbation_theta, and the counter of
    (gamma_1, exp(-Theta J) gamma_2) that verified it, its caches filled."""
    if g1.n != g2.n:
        raise ValueError(f"half-dimension mismatch: {g1.n} vs {g2.n}")
    nonzero = []
    for e in (0.0, 1.0):
        p = _eigenphases(g1.souriau_matrix(e) @ g2.souriau_matrix(e).conj())
        nonzero.extend(abs(t) for t in p if abs(t) > 100 * PHASE_TOL)
    theta = min(theta_max, 0.49 * min(nonzero)) if nonzero else theta_max

    while theta >= 1e-6:
        ladder_ok = True
        for k in range(4):
            tk = theta / 2**k
            for e in (0.0, 1.0):
                if intersection_dimension(g1.frame(e), rotate(g2.frame(e), -tk), tol) != 0:
                    ladder_ok = False
        if ladder_ok:
            counter = _PairCounter(g1, RotatedPath(g2, -theta), max_depth)
            if counter.total() == _PairCounter(g1, RotatedPath(g2, -theta / 2), max_depth).total():
                return float(theta), counter
        theta /= 4.0
    raise RuntimeError("no stable regularization angle found down to 1e-6")


def _pair_counter(g1: LagrangianPath, g2: LagrangianPath, tol: float, max_depth: int) -> _PairCounter:
    """The counter of the pair, rotated by the stable Theta if an endpoint
    intersection is nontrivial."""
    if all(intersection_dimension(g1.frame(e), g2.frame(e), tol) == 0 for e in (0.0, 1.0)):
        return _PairCounter(g1, g2, max_depth)
    return _regularized(g1, g2, np.pi / 8, tol, max_depth)[1]


def maslov_pair(
    g1: LagrangianPath,
    g2: LagrangianPath,
    tol: float = DEFAULT_TOL,
    max_depth: int = MAX_DEPTH,
) -> int:
    """Maslov index of a pair of Lagrangian paths.

    Admissible pairs are counted directly; otherwise the second path is
    rotated by the stable angle from perturbation_theta first.
    """
    counter = _pair_counter(g1, g2, tol, max_depth)
    try:
        return counter.total()
    except UnresolvedCrossing:
        # degenerate crossing cluster: retry through a small stable rotation
        return _regularized(g1, g2, 1e-3, tol, max_depth)[1].total()


def maslov_rel(g: LagrangianPath, L0: LagrangianFrame) -> int:
    """Maslov index of a path relative to a fixed Lagrangian subspace."""
    return maslov_pair(g, ConstantPath(L0))


def maslov_loop(g: LagrangianPath) -> int:
    """Winding number of det W(lambda) around the unit circle for a closed path.

    With W(R^n x {0}) = I, the continuous change of the eigenphase sum of W
    is 2pi times the crossings through 0 plus the change of the wrapped sum.
    """
    closure = gap_distance(g.frame(0.0), g.frame(1.0))
    if closure > 1e-9:
        raise ValueError(f"path is not closed: endpoint gap {closure:.3e}")
    counter = _PairCounter(g, ConstantPath(l0_frame(g.n)))
    winding = counter.total() + (counter.phase_sum(1.0) - counter.phase_sum(0.0)) / (2.0 * np.pi)
    if abs(winding - round(winding)) > 1e-3:
        raise RuntimeError(f"winding number {winding:.6f} is not an integer")
    return int(round(winding))


def crossing_list(
    g1: LagrangianPath,
    g2: LagrangianPath,
    tol: float = DEFAULT_TOL,
    max_depth: int = MAX_DEPTH,
) -> list[CrossingRecord]:
    """Localized signed crossings underlying maslov_pair.

    Each record carries the crossing parameter, the net sign and the number
    of signed units; the signed sum equals the pair index.  Crossing clusters
    whose net contribution is zero are not emitted.  Non-admissible pairs are
    regularized exactly as in maslov_pair before localization.
    """
    counter = _pair_counter(g1, g2, tol, max_depth)
    records = []

    def localize(a, b, net):
        if net == 0:
            return
        if b - a <= _LOC_TOL:
            sign = 1 if net > 0 else -1
            records.append(CrossingRecord(0.5 * (a + b), sign, abs(net)))
            return
        m = 0.5 * (a + b)
        localize(a, m, counter.count(a, m))
        localize(m, b, counter.count(m, b))

    nodes = counter.initial_nodes()
    for a, b in zip(nodes[:-1], nodes[1:]):
        localize(a, b, counter.count(a, b))
    return sorted(records, key=lambda r: r.lambda_star)
