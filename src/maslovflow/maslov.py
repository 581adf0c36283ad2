"""Maslov indices of loops, paths and pairs of Lagrangian paths.

The pair index is computed from the relative unitary
C(lambda) = W1(lambda) conj(W2(lambda)) of the two Souriau matrices:
crossings of an eigenphase through 0 (eigenvalue 1 of C) are exactly the
nontrivial intersections gamma_1(lambda) cap gamma_2(lambda), and the signed
count of those crossings (+1 for an eigenphase increasing through 0) is the
index.  Counting is done with arc counts over adaptively bisected parameter
segments: on each segment a window [0, w) around phase 0 is chosen wide
enough that no eigenphase can cross +-w inside the segment, so the
difference of the endpoint arc counts equals the net signed crossings.
Phases exactly at 0 belong to the arc, mirroring the half-closed windows
used on the spectral-flow side.

Non-admissible pairs (endpoint intersections nontrivial) are rotated:
the index is that of (gamma_1, exp(-Theta J) gamma_2) for a small stable
Theta > 0 supplied by perturbation_theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import ConstantPath, LagrangianPath, RotatedPath
from .symplectic import LagrangianFrame, gap_distance, intersection_dimension, norm2, rotate

PHASE_TOL = 1e-9
_DC_CAP = 0.15
_MOTION_FACTOR = 1.5
_W_MAX = np.pi / 2
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
    """Sorted eigenvalue phases of a unitary matrix, in (-pi, pi]."""
    return np.sort(np.angle(np.linalg.eigvals(C)))


class _PairCounter:
    """Signed eigenphase-crossing counter for one pair of paths."""

    def __init__(self, g1: LagrangianPath, g2: LagrangianPath, max_depth: int = MAX_DEPTH):
        if g1.n != g2.n:
            raise ValueError(f"half-dimension mismatch: {g1.n} vs {g2.n}")
        self.g1 = g1
        self.g2 = g2
        self.max_depth = max_depth
        self._C: dict[float, np.ndarray] = {}
        self._phases: dict[float, np.ndarray] = {}

    def relative_unitary(self, lam: float) -> np.ndarray:
        got = self._C.get(lam)
        if got is None:
            got = self.g1.souriau_matrix(lam) @ self.g2.souriau_matrix(lam).conj()
            self._C[lam] = got
        return got

    def phases(self, lam: float) -> np.ndarray:
        got = self._phases.get(lam)
        if got is None:
            got = _eigenphases(self.relative_unitary(lam))
            self._phases[lam] = got
        return got

    @staticmethod
    def _arc_count(phases: np.ndarray, w: float) -> int:
        return int(np.sum((phases >= -PHASE_TOL) & (phases < w)))

    @staticmethod
    def _choose_window(qs: np.ndarray):
        """Arc boundary in (0, pi/2] with the largest clearance from all phases."""
        walls = np.concatenate([[0.0], np.sort(qs), [np.pi]])
        best_w, best_margin = None, 0.0
        for a, b in zip(walls[:-1], walls[1:]):
            w = min(0.5 * (a + b), _W_MAX)
            if w <= a:
                continue
            margin = min(w - a, b - w)
            if margin > best_margin:
                best_w, best_margin = w, margin
        return best_w, best_margin

    def count(self, a: float, b: float, depth: int = 0) -> int:
        dC = norm2(self.relative_unitary(b) - self.relative_unitary(a))
        if dC <= _DC_CAP:
            # bound on how far any eigenphase can move inside the segment
            z = _MOTION_FACTOR * dC + 10 * PHASE_TOL
            pa, pb = self.phases(a), self.phases(b)
            qs = np.abs(np.concatenate([pa, pb]))
            w, margin = self._choose_window(qs)
            # no eigenphase can reach +-w, so the arc count [0, w) changes
            # only through crossings of zero
            if w is not None and margin > z:
                return self._arc_count(pb, w) - self._arc_count(pa, w)
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


def _is_admissible(g1: LagrangianPath, g2: LagrangianPath, tol: float) -> bool:
    return (
        intersection_dimension(g1.frame(0.0), g2.frame(0.0), tol) == 0
        and intersection_dimension(g1.frame(1.0), g2.frame(1.0), tol) == 0
    )


def perturbation_theta(
    g1: LagrangianPath,
    g2: LagrangianPath,
    theta_max: float = np.pi / 8,
    tol: float = DEFAULT_TOL,
    max_depth: int = MAX_DEPTH,
) -> float:
    """A stable rotation angle Theta > 0 regularizing the endpoint intersections.

    Theta is chosen below half the smallest nonzero relative eigenphase at
    either endpoint, so gamma_1(e) and exp(-Theta' J) gamma_2(e) are
    transversal for every 0 < |Theta'| <= Theta.  A geometric ladder of test
    angles is verified, and Theta is accepted only if the pair index computed
    at Theta and Theta/2 agree; otherwise Theta shrinks until 1e-6.
    """
    if g1.n != g2.n:
        raise ValueError(f"half-dimension mismatch: {g1.n} vs {g2.n}")
    counter = _PairCounter(g1, g2, max_depth)
    nonzero = []
    for e in (0.0, 1.0):
        p = counter.phases(e)
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
            v1 = _PairCounter(g1, RotatedPath(g2, -theta), max_depth).total()
            v2 = _PairCounter(g1, RotatedPath(g2, -theta / 2), max_depth).total()
            if v1 == v2:
                return float(theta)
        theta /= 4.0
    raise RuntimeError("no stable regularization angle found down to 1e-6")


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
    if not _is_admissible(g1, g2, tol):
        theta = perturbation_theta(g1, g2, tol=tol, max_depth=max_depth)
        return maslov_pair(g1, RotatedPath(g2, -theta), tol, max_depth)
    counter = _PairCounter(g1, g2, max_depth)
    try:
        return counter.total()
    except UnresolvedCrossing:
        # degenerate crossing cluster: retry through a small stable rotation
        theta = perturbation_theta(g1, g2, theta_max=1e-3, tol=tol, max_depth=max_depth)
        return maslov_pair(g1, RotatedPath(g2, -theta), tol, max_depth)


def maslov_rel(g: LagrangianPath, L0: LagrangianFrame, tol: float = DEFAULT_TOL) -> int:
    """Maslov index of a path relative to a fixed Lagrangian subspace."""
    return maslov_pair(g, ConstantPath(L0), tol)


def maslov_loop(g: LagrangianPath, max_depth: int = MAX_DEPTH) -> int:
    """Winding number of det W(lambda) around the unit circle for a closed path.

    Phase increments are accumulated along an adaptively refined grid with
    every increment below pi/2.
    """
    closure = gap_distance(g.frame(0.0), g.frame(1.0))
    if closure > 1e-9:
        raise ValueError(f"path is not closed: endpoint gap {closure:.3e}")
    dets: dict[float, complex] = {}

    def det_at(lam):
        got = dets.get(lam)
        if got is None:
            got = complex(np.linalg.det(g.souriau_matrix(lam)))
            dets[lam] = got
        return got

    nodes = list(np.asarray(g.sample_grid))
    for _ in range(max_depth):
        refined, dirty = [nodes[0]], False
        for a, b in zip(nodes[:-1], nodes[1:]):
            if abs(np.angle(det_at(b) / det_at(a))) >= np.pi / 2:
                refined.append(0.5 * (a + b))
                dirty = True
            refined.append(b)
        nodes = refined
        if not dirty:
            break
    else:
        raise RuntimeError(f"grid too coarse after {max_depth} refinement passes")
    total = sum(
        np.angle(det_at(b) / det_at(a)) for a, b in zip(nodes[:-1], nodes[1:])
    )
    winding = total / (2 * np.pi)
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
    if not _is_admissible(g1, g2, tol):
        theta = perturbation_theta(g1, g2, tol=tol, max_depth=max_depth)
        return crossing_list(g1, RotatedPath(g2, -theta), tol, max_depth)
    counter = _PairCounter(g1, g2, max_depth)
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
