"""Maslov indices of loops, paths and pairs of Lagrangian paths.

The pair index is computed from the relative unitary
C(lambda) = W1(lambda) conj(W2(lambda)) of the two Souriau matrices:
crossings of an eigenphase through 0 (eigenvalue 1 of C) are exactly the
nontrivial intersections gamma_1(lambda) cap gamma_2(lambda), and the signed
count of those crossings (+1 for an eigenphase increasing through 0) is the
index.  The count is the winding of the eigenphase sum Sigma(lambda), each
eigenphase taken in [-PHASE_TOL, 2pi - PHASE_TOL), so a phase at 0 has
already crossed: the half-closed convention of the spectral-flow side, whose
eigenphases lie in [-_TIE, 2pi - _TIE) and so count the same way (Arnold,
"Sturm theorems and symplectic geometry", 1985).  Endpoint phases in
[-PHASE_TOL, 0] = [-1e-9, 0] count as a kernel; at S = 0 an eigenvalue mu
is a phase 2 mu of C, so the spectral side's kernel band, eigenvalues in
[-_ZERO_TOL, 0] with _ZERO_TOL = 1e-9, is the phase band [-2e-9, 0].
An eigenphase increasing through 0 makes Sigma jump by -2pi, so a parameter
segment [a, b] holds -round((Sigma(b) - Sigma(a)) / 2pi) net crossings while
the eigenphases together move by less than pi inside it.  Segments are
bisected until ||C(b) - C(a)|| <= min(0.15, 3/n), at which the endpoint
spectra match closely enough (Bhatia & Davis 1984) for that to hold, to at
most MAX_DEPTH levels.  The count goes level by level: all segments still
open at one bisection depth are halved together, and C and Sigma at all
their midpoints come from one batch of Souriau matrices per path.  The
winding of det W along a loop is the same count plus the change of Sigma
from end to end.

Non-admissible pairs (an endpoint intersection nontrivial at the rank
tolerance RANK_TOL; the index takes no tolerance of its own) are rotated:
the index is that of (gamma_1, exp(-Theta J) gamma_2), Theta > 0 read from
endpoint data by perturbation_theta, counted once as e^{2i Theta} C on the
frames and grid of gamma_2 itself: the rotation multiplies each U(F) by
e^{-i Theta} (Robbin & Salamon, "The Maslov index for paths", 1993).

Each path is evaluated only in batches: the sample grids are built before
any test reads an endpoint frame, and their first batch holds lambda = 0
and 1, so the admissibility and closure tests and Theta's endpoint phases
read cached frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import ConstantPath, LagrangianPath, _interleave
from .symplectic import (
    LagrangianFrame,
    gap_distance,
    intersection_dimension,
    l0_frame,
    souriau_stack,
    within_each,
)

PHASE_TOL = 1e-9
_DC_CAP = 0.15
_LOC_TOL = 1e-9
# bisection levels per sample-grid segment before UnresolvedCrossing; read at
# each count, so a test can lower it
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
    """Eigenvalue phases of a unitary matrix, or of each of a stack, in (-pi, pi]."""
    return np.angle(np.linalg.eigvals(C))


def _check_pair(g1: LagrangianPath, g2: LagrangianPath) -> None:
    if g1.n != g2.n:
        raise ValueError(f"half-dimension mismatch: {g1.n} vs {g2.n}")


class _PairCounter:
    """Signed eigenphase-crossing counter for (gamma_1, exp(-theta J) gamma_2),
    whose relative unitary is e^{2i theta} C: the bisections of C, with its
    eigenphases moved rigidly by 2 theta."""

    def __init__(self, g1: LagrangianPath, g2: LagrangianPath, theta: float = 0.0):
        _check_pair(g1, g2)
        self.g1 = g1
        self.g2 = g2
        self.phase = np.exp(2j * theta) if theta else None
        # the end spectra of an accepted segment match within 2 arcsin(cap / 2)
        # per eigenphase (Bhatia & Davis), n of which stay below pi
        self.cap = min(_DC_CAP, 3.0 / g1.n)

    def unitaries(self, lams: np.ndarray):
        """C(lambda) = W1 conj(W2) at each lambda, times e^{2i theta}, stacked,
        and the sums of their eigenphases, each taken in [-PHASE_TOL, 2pi - PHASE_TOL)."""
        W = souriau_stack(np.concatenate([self.g1.frames(lams), self.g2.frames(lams)]))
        C = W[: lams.size] @ W[lams.size :].conj()
        if self.phase is not None:
            C = self.phase * C
        p = _eigenphases(C)
        return C, np.sum(np.where(p < -PHASE_TOL, p + 2.0 * np.pi, p), axis=1)

    def counts(self, a, b) -> np.ndarray:
        """Net signed crossings of eigenphases through 0 on each [a[i], b[i]].

        A segment is accepted once ||C(b) - C(a)|| <= cap; the others are
        halved, all of one depth together, until MAX_DEPTH, read at the call,
        where the first open segment raises UnresolvedCrossing.
        """
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        lams, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        C, sums = self.unitaries(lams)
        Ca, Cb, Sa, Sb = C[inv[: a.size]], C[inv[a.size :]], sums[inv[: a.size]], sums[inv[a.size :]]
        owner = np.arange(a.size)
        out = np.zeros(a.size, dtype=int)
        depth = 0
        while True:
            ok = within_each(Cb - Ca, self.cap)
            np.add.at(out, owner[ok], -np.rint((Sb[ok] - Sa[ok]) / (2.0 * np.pi)).astype(int))
            if ok.all():
                return out
            if depth == MAX_DEPTH:
                k = int(np.argmin(ok))
                raise UnresolvedCrossing(
                    f"unresolved crossing near lambda in [{a[k]:.12g}, {b[k]:.12g}] "
                    f"after {MAX_DEPTH} bisections"
                )
            a, b, Ca, Cb, Sa, Sb, owner = (x[~ok] for x in (a, b, Ca, Cb, Sa, Sb, owner))
            m = 0.5 * (a + b)
            Cm, Sm = self.unitaries(m)
            # each open segment becomes [a, m] and [m, b], in order
            a, b, owner = _interleave(a, m), _interleave(m, b), np.repeat(owner, 2)
            Ca, Cb, Sa, Sb = _interleave(Ca, Cm), _interleave(Cm, Cb), _interleave(Sa, Sm), _interleave(Sm, Sb)
            depth += 1

    def initial_nodes(self) -> np.ndarray:
        return np.union1d(self.g1.sample_grid, self.g2.sample_grid)

    def total(self) -> int:
        nodes = self.initial_nodes()
        return int(self.counts(nodes[:-1], nodes[1:]).sum())


def perturbation_theta(g1: LagrangianPath, g2: LagrangianPath) -> float:
    """A stable angle Theta > 0 regularizing the endpoint intersections, read
    from the endpoint eigenphases of C alone: min(pi/8, 0.49 m), m the
    smallest endpoint |eigenphase| above 100 PHASE_TOL.

    The pair is counted once, at Theta.  At angle t the counter multiplies C
    by e^{2it}, so every ||C(b) - C(a)|| and bisection is the same (up to
    rounding at the cap, where any tree that passes it counts alike), and
    each eigenphase moves rigidly by 2t: Sigma_t = Sigma_0 + 2nt - 2pi w_t,
    w_t the integer count of phases wrapped at the cut of
    [-PHASE_TOL, 2pi - PHASE_TOL).  The segment shifts w_t(b) - w_t(a)
    telescope to w at lambda = 0, 1, so the count at Theta is that of every
    angle that wraps the same endpoint phases.  At Theta a phase above
    100 PHASE_TOL stays unwrapped; a phase phi <= -m stays wrapped, ending at
    or below -0.02 m <= -2e-9 < -PHASE_TOL; and a phase |phi| <= 100 PHASE_TOL
    must land above the cut, phi + 2 Theta > -PHASE_TOL.  That holds by
    construction once m > (1e-7 - PHASE_TOL) / 0.98, about 1.0102e-7; a phase
    that misses it raises RuntimeError naming its lambda.  An aliased segment
    sees the same endpoint data, rigidly shifted, at every such angle, so is
    equally wrong at each.
    """
    _check_pair(g1, g2)
    _build_grids(g1, g2)
    ends = [_eigenphases(g1.souriau_matrix(e) @ g2.souriau_matrix(e).conj()) for e in (0.0, 1.0)]
    p = np.abs(np.concatenate(ends))
    theta = float(min(np.pi / 8, 0.49 * p[p > 100 * PHASE_TOL].min(initial=np.inf)))
    for e, phases in zip((0.0, 1.0), ends):
        low = phases[(np.abs(phases) <= 100 * PHASE_TOL) & (phases + 2.0 * theta <= -PHASE_TOL)]
        if low.size:
            raise RuntimeError(
                f"endpoint phase {low[0]:.6g} at lambda = {e:g} stays below the cut at Theta = {theta:.6g}"
            )
    return theta


def _build_grids(*paths: LagrangianPath) -> None:
    """Build the sample grid of each path.  Its first batch holds lambda = 0
    and 1, so the endpoint frames read after it are cache hits."""
    for g in paths:
        g.sample_grid


def _pair_counter(g1: LagrangianPath, g2: LagrangianPath) -> _PairCounter:
    """The counter of the pair, rotated by the stable Theta if an endpoint
    intersection is nontrivial at the default rank tolerance RANK_TOL of
    intersection_dimension.  That test decides which pairs are rotated, not
    the angle, which perturbation_theta reads from the endpoint phases.

    The half-dimensions are checked before any frame is read.  Both sample
    grids are built before the admissibility test, which then
    reads the endpoint frames from their first batch; the counter needs the
    grids in either branch.
    """
    _check_pair(g1, g2)
    _build_grids(g1, g2)
    admissible = all(intersection_dimension(g1.frame(e), g2.frame(e)) == 0 for e in (0.0, 1.0))
    return _PairCounter(g1, g2, 0.0 if admissible else perturbation_theta(g1, g2))


def maslov_pair(g1: LagrangianPath, g2: LagrangianPath) -> int:
    """Maslov index of a pair of Lagrangian paths.

    It takes no accuracy setting.  Admissible pairs, whose endpoint
    intersections are trivial at RANK_TOL, are counted directly; otherwise
    the pair is counted as (gamma_1, exp(-Theta J) gamma_2), Theta from
    perturbation_theta.  A count that reaches MAX_DEPTH raises
    UnresolvedCrossing, as in crossing_list: a rotation exp(-Theta J) of
    gamma_2 multiplies C by the unit scalar e^{2i Theta}, which keeps every
    ||C(b) - C(a)|| and so every bisection.
    """
    return _pair_counter(g1, g2).total()


def maslov_rel(g: LagrangianPath, L0: LagrangianFrame) -> int:
    """Maslov index of a path relative to a fixed Lagrangian subspace."""
    return maslov_pair(g, ConstantPath(L0))


def maslov_loop(g: LagrangianPath) -> int:
    """Winding number of det W(lambda) around the unit circle for a closed path.

    With W(R^n x {0}) = I, the continuous change of the eigenphase sum of W
    is 2pi times the crossings through 0 plus the change of the wrapped sum.
    The closure test reads the endpoint frames from the first batch of the
    sample grid, which the count needs anyway.
    """
    _build_grids(g)
    closure = gap_distance(g.frame(0.0), g.frame(1.0))
    if closure > 1e-9:
        raise ValueError(f"path is not closed: endpoint gap {closure:.3e}")
    counter = _PairCounter(g, ConstantPath(l0_frame(g.n)))
    _, ends = counter.unitaries(np.array([0.0, 1.0]))
    winding = counter.total() + (ends[1] - ends[0]) / (2.0 * np.pi)
    if abs(winding - round(winding)) > 1e-3:
        raise RuntimeError(f"winding number {winding:.6f} is not an integer")
    return int(round(winding))


def crossing_list(g1: LagrangianPath, g2: LagrangianPath) -> list[CrossingRecord]:
    """Localized signed crossings underlying maslov_pair.

    Each record carries the crossing parameter, the net sign and the number
    of signed units; the signed sum equals the pair index.  Crossing clusters
    whose net contribution is zero are not emitted.  Non-admissible pairs are
    regularized exactly as in maslov_pair before localization; like it, the
    list takes no accuracy setting.
    """
    counter = _pair_counter(g1, g2)
    records = []
    nodes = counter.initial_nodes()
    a, b = nodes[:-1], nodes[1:]
    net = counter.counts(a, b)
    while True:
        # segments with a nonzero net count are halved, one level at a time,
        # until they are at most _LOC_TOL wide
        keep = net != 0
        a, b, net = a[keep], b[keep], net[keep]
        done = b - a <= _LOC_TOL
        records += [
            CrossingRecord(0.5 * (x + y), 1 if k > 0 else -1, abs(k))
            for x, y, k in zip(a[done].tolist(), b[done].tolist(), net[done].tolist())
        ]
        a, b = a[~done], b[~done]
        if a.size == 0:
            return sorted(records, key=lambda r: r.lambda_star)
        m = 0.5 * (a + b)
        a, b = _interleave(a, m), _interleave(m, b)
        net = counter.counts(a, b)
