"""Tests for the pair index, loops, crossings and regularization.

The product/diagonal construction on R^(4n) is used as an independent oracle
for the pair index at small n: negate the momentum block of the first factor,
permute to the standard symplectic form, and compute the index of the product
path against the (transformed) diagonal.
"""

import numpy as np
import pytest

from maslovflow import (
    BoundaryValueFamily,
    ConcatPath,
    ConstantPath,
    PiecewiseLinear,
    RotatedPath,
    RotationPath,
    crossing_list,
    frame_from_basis,
    gamma_nor,
    gamma_nor_prime,
    l0_frame,
    l1_frame,
    maslov_loop,
    maslov_pair,
    maslov_rel,
    perturbation_theta,
    souriau,
    spectral_flow,
    UnresolvedCrossing,
)
from maslovflow import maslov
from maslovflow.paths import LagrangianPath
from maslovflow.suites import random_lagrangian_frame, random_pair


def test_normalization_pair_indices():
    for n in (1, 2, 3):
        assert maslov_pair(gamma_nor(n), ConstantPath(l1_frame(n))) == 1
        assert maslov_pair(ConstantPath(l0_frame(n)), gamma_nor_prime(n)) == -1


def test_maslov_rel_matches_pair():
    n = 2
    assert maslov_rel(gamma_nor(n), l1_frame(n)) == 1
    # constant path transversal to the reference gives zero
    rng = np.random.default_rng(0)
    L = random_lagrangian_frame(rng, n)
    theta = 0.4
    assert maslov_rel(ConstantPath(L), RotatedPath(ConstantPath(L), theta).frame(0.0)) == 0


def test_maslov_rel_reversed():
    n = 2
    assert maslov_rel(gamma_nor(n).reversed(), l1_frame(n)) == -1


def test_maslov_loop_constant_and_reference():
    n = 2
    assert maslov_loop(ConstantPath(l0_frame(n))) == 0
    assert maslov_loop(gamma_nor(n)) == 1
    assert maslov_loop(gamma_nor_prime(n)) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_maslov_loop_winding_additivity(k):
    g = gamma_nor(1)
    assert maslov_loop(ConcatPath([g] * k)) == k


def test_maslov_loop_rejects_open_path():
    g = RotationPath(l0_frame(1), PiecewiseLinear.linear(0.0, 0.7))
    with pytest.raises(ValueError, match="closed"):
        maslov_loop(g)


def test_transversal_pair_vanishes():
    rng = np.random.default_rng(1)
    from maslovflow.suites import _transversal_pair

    for _ in range(10):
        n = 1 + int(rng.integers(0, 2))
        g1, g2 = _transversal_pair(rng, n)
        assert maslov_pair(g1, g2) == 0


def test_identical_paths_regularized_and_cross_checked():
    # identical paths are non-admissible; the regularized index is zero and
    # the spectral flow of the same pair is the independent oracle
    g = gamma_nor(1)
    assert maslov_pair(g, g) == 0
    assert spectral_flow(BoundaryValueFamily(g, g)).value == 0


def test_crossing_list_reference_pair():
    # oracle: gamma_nor(lam) meets {0} x R^n exactly when cos(pi lam) = 0
    records = crossing_list(gamma_nor(1), ConstantPath(l1_frame(1)))
    assert len(records) == 1
    rec = records[0]
    assert rec.lambda_star == pytest.approx(0.5, abs=1e-6)
    assert rec.sign == 1 and rec.multiplicity == 1


def test_crossing_list_transversal_empty():
    from maslovflow.suites import _transversal_pair

    g1, g2 = _transversal_pair(np.random.default_rng(2), 1)
    assert crossing_list(g1, g2) == []


def test_crossing_list_concatenation_union():
    g = gamma_nor(1)
    L1 = ConstantPath(l1_frame(1))
    double = ConcatPath([g, g])
    records = crossing_list(double, ConcatPath([L1, L1]))
    stars = [r.lambda_star for r in records]
    assert len(records) == 2
    assert stars[0] == pytest.approx(0.25, abs=1e-6)
    assert stars[1] == pytest.approx(0.75, abs=1e-6)
    assert sum(r.sign * r.multiplicity for r in records) == maslov_pair(double, ConcatPath([L1, L1]))


def test_crossing_sum_matches_index_randomized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 1 + int(rng.integers(0, 2))
        g1, g2 = random_pair(rng, n)
        records = crossing_list(g1, g2)
        assert sum(r.sign * r.multiplicity for r in records) == maslov_pair(g1, g2)
        assert all(1 <= r.multiplicity <= n for r in records)


def test_maslov_pair_propagates_errors_other_than_unresolved_crossing(monkeypatch):
    # only an exhausted bisection depth may fall back to a rotated pair; any
    # other RuntimeError inside the counter is a bug and must surface
    def broken_count(self, a, b, depth=0):
        raise RuntimeError("bug inside the counter")

    def no_fallback(*args, **kwargs):
        raise AssertionError("perturbation_theta must not be called")

    monkeypatch.setattr(maslov._PairCounter, "count", broken_count)
    monkeypatch.setattr(maslov, "perturbation_theta", no_fallback)
    with pytest.raises(RuntimeError, match="bug inside the counter"):
        maslov_pair(gamma_nor(1), ConstantPath(l1_frame(1)))


def test_depth_exhaustion_raises_unresolved_crossing():
    # on [0, 1/2] the relative unitary of (gamma_nor, l1) moves from 1 to -1,
    # far beyond one resolvable segment, so depth 0 cannot settle it
    counter = maslov._PairCounter(gamma_nor(1), ConstantPath(l1_frame(1)), max_depth=0)
    with pytest.raises(UnresolvedCrossing, match="unresolved crossing"):
        counter.count(0.0, 0.5)


def test_perturbation_theta_admissible_pair():
    g1, g2 = random_pair(np.random.default_rng(4), 2)
    theta = perturbation_theta(g1, g2)
    assert theta > 0


def test_perturbation_theta_identical_constant_paths():
    L = random_lagrangian_frame(np.random.default_rng(5), 2)
    theta = perturbation_theta(ConstantPath(L), ConstantPath(L))
    assert 0 < theta <= np.pi / 8


def test_perturbation_theta_partial_intersection_bound():
    # endpoint pair with a one-dimensional intersection and relative
    # eigenphases {0, 2s}: theta must stay below s (half the smallest
    # nonzero eigenphase), oracle = the eigenphases of the Souriau quotient
    n, s = 2, 0.35
    cols = np.zeros((2 * n, n))
    cols[0, 0] = 1.0
    cols[1, 1] = np.cos(s)
    cols[n + 1, 1] = np.sin(s)
    L = frame_from_basis(cols)
    phases = np.sort(np.abs(np.angle(np.linalg.eigvals(
        souriau(L).W @ souriau(l0_frame(n)).W.conj()
    ))))
    assert phases[0] == pytest.approx(0.0, abs=1e-12)
    assert phases[1] == pytest.approx(2 * s, abs=1e-12)
    theta = perturbation_theta(ConstantPath(L), ConstantPath(l0_frame(n)))
    assert 0 < theta < s


def test_regularization_consistency_on_admissible_pairs():
    rng = np.random.default_rng(6)
    for _ in range(8):
        n = 1 + int(rng.integers(0, 2))
        g1, g2 = random_pair(rng, n)
        base = maslov_pair(g1, g2)
        theta = perturbation_theta(g1, g2)
        assert maslov_pair(g1, RotatedPath(g2, -theta)) == base


# --- product/diagonal oracle ------------------------------------------------
#
# The pair index of (g1, g2) is the index of the product path against the
# diagonal inside R^(4n) carrying a product form with opposite signs on the
# two factors.  Standardizing that form means negating one momentum block and
# permuting to (positions, momenta) order; the sign of the negated factor is
# an orientation choice, and the normalization pair pins it: the second
# factor must carry the sign flip (T(x, xi, y, eta) = (x, y, xi, -eta)),
# otherwise the embedding computes the negative of the index.


class _ProductPath(LagrangianPath):
    """T(gamma_1 x gamma_2) in R^(4n) with T(x, xi, y, eta) = (x, y, xi, -eta)."""

    def __init__(self, g1, g2):
        super().__init__(2 * g1.n)
        self.g1 = g1
        self.g2 = g2

    def _frame_at(self, lam):
        n = self.g1.n
        F1 = self.g1.frame(lam).F
        F2 = self.g2.frame(lam).F
        cols = []
        for j in range(n):
            u = F1[:, j]
            cols.append(np.concatenate([u[:n], np.zeros(n), u[n:], np.zeros(n)]))
        for j in range(n):
            v = F2[:, j]
            cols.append(np.concatenate([np.zeros(n), v[:n], np.zeros(n), -v[n:]]))
        return frame_from_basis(np.column_stack(cols))

    def breakpoint_hints(self):
        return tuple(sorted(set(self.g1.breakpoint_hints()) | set(self.g2.breakpoint_hints())))


def _diagonal_frame(n):
    cols = []
    for j in range(2 * n):
        w = np.eye(2 * n)[:, j]
        cols.append(np.concatenate([w[:n], w[:n], w[n:], -w[n:]]))
    return frame_from_basis(np.column_stack(cols))


def test_pair_index_matches_product_diagonal_definition():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = 1 + int(rng.integers(0, 2))
        g1, g2 = random_pair(rng, n)
        direct = maslov_pair(g1, g2)
        product = maslov_pair(_ProductPath(g1, g2), ConstantPath(_diagonal_frame(n)))
        assert direct == product


def test_product_diagonal_normalization():
    n = 1
    g1 = gamma_nor(n)
    g2 = ConstantPath(l1_frame(n))
    assert maslov_pair(_ProductPath(g1, g2), ConstantPath(_diagonal_frame(n))) == 1
