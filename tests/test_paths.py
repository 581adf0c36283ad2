"""Tests for path descriptors, reference paths and sampling grids."""

import weakref

import numpy as np
import pytest

from maslovflow import (
    ConcatPath,
    ConstantPath,
    LagrangianFrame,
    PiecewiseLinear,
    ReparametrizedPath,
    RotatedPath,
    SymplecticActionPath,
    UnitaryDiagonalPath,
    frame_from_basis,
    gamma_nor,
    gamma_nor_prime,
    gap_distance,
    intersection_dimension,
    l0_frame,
    l1_frame,
    rotate,
    rotation_matrix,
)
from maslovflow.hamiltonian import transported_path
from maslovflow.maslov import maslov_pair
from maslovflow.paths import GRID_GAP, LagrangianPath, PolynomialAction
from maslovflow.specflow import BoundaryValueFamily, spectral_flow
from maslovflow.suites import random_action, random_lagrangian_frame, random_symmetric_family
from maslovflow.symplectic import lagrangian_frames, souriau_stack


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.5], [1.0, 2.0])  # does not end at 1
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.5, 0.5, 1.0], [0, 1, 2, 3])  # not strictly increasing
    f = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 2.0, 1.0])
    assert f(0.25) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_nor_endpoints_and_formula(n):
    g = gamma_nor(n)
    assert gap_distance(g.frame(0.0), l0_frame(n)) < 1e-12
    assert gap_distance(g.frame(1.0), l0_frame(n)) < 1e-12
    for lam in (0.15, 0.5, 0.85):
        cols = [np.cos(np.pi * lam) * np.eye(2 * n)[:, 0] + np.sin(np.pi * lam) * np.eye(2 * n)[:, n]]
        cols += [np.eye(2 * n)[:, j] for j in range(1, n)]
        explicit = frame_from_basis(np.column_stack(cols))
        assert gap_distance(g.frame(lam), explicit) < 1e-12
        assert intersection_dimension(g.frame(lam), l0_frame(n)) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_nor_prime_endpoints_and_formula(n):
    g = gamma_nor_prime(n)
    assert gap_distance(g.frame(0.0), l1_frame(n)) < 1e-12
    assert gap_distance(g.frame(1.0), l1_frame(n)) < 1e-12
    lam = 0.5
    cols = [np.eye(2 * n)[:, 0]] + [np.eye(2 * n)[:, n + j] for j in range(1, n)]
    explicit = frame_from_basis(np.column_stack(cols))
    assert gap_distance(g.frame(lam), explicit) < 1e-12


def test_gamma_nor_prime_n1_explicit():
    g = gamma_nor_prime(1)
    for lam in (0.0, 0.3, 0.75, 1.0):
        v = np.array([np.sin(np.pi * lam), -np.cos(np.pi * lam)])
        target = frame_from_basis(v.reshape(2, 1))
        assert gap_distance(g.frame(lam), target) < 1e-12


def test_sample_grid_invariants():
    g = RotatedPath(l0_frame(2), PiecewiseLinear([0.0, 1.0], [0.0, 5.0]))
    grid = g.sample_grid
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0)
    for a, b in zip(grid[:-1], grid[1:]):
        assert gap_distance(g.frame(a), g.frame(b)) <= 0.1 + 1e-12


def test_unitary_diagonal_path_frames():
    phases = [PiecewiseLinear.linear(0.0, np.pi / 2), PiecewiseLinear.constant(0.3)]
    g = UnitaryDiagonalPath(phases)
    F = g.frame(1.0).F
    assert F[:, 0] == pytest.approx(np.array([0.0, 0.0, 1.0, 0.0]), abs=1e-12)


def test_symplectic_action_path_rejects_non_symplectic():
    g = SymplecticActionPath(lambda lams: 2.0 * np.eye(4)[None], l0_frame(2))
    with pytest.raises(ValueError, match="symplectic"):
        g.frame(0.5)


@pytest.mark.parametrize("action, got", [
    (lambda lams: np.eye(4), r"\(4, 4\)"),  # the old one-lambda contract
    (lambda lams: np.broadcast_to(np.eye(4), (2, 4, 4)), r"\(2, 4, 4\)"),
    (lambda lams: np.broadcast_to(np.eye(2), (lams.size, 2, 2)), r"\(3, 2, 2\)"),
], ids=["one_matrix", "too_few_matrices", "wrong_dimension"])
def test_symplectic_action_path_names_the_shape_it_expects(action, got):
    g = SymplecticActionPath(action, l0_frame(2))
    with pytest.raises(ValueError, match=r"stack \(m, 2n, 2n\) = \(3, 4, 4\), got " + got):
        g.frames([0.1, 0.6, 0.7])


def test_concat_path_junction_check():
    a = ConstantPath(l0_frame(1))
    b = ConstantPath(l1_frame(1))
    with pytest.raises(ValueError, match="junction"):
        ConcatPath([a, b])
    g = ConcatPath([a, a])
    assert gap_distance(g.frame(0.2), l0_frame(1)) < 1e-14


def test_concat_path_traversal():
    up = RotatedPath(l0_frame(1), PiecewiseLinear.linear(0.0, 0.7))
    down = RotatedPath(l0_frame(1), PiecewiseLinear.linear(0.7, 1.4))
    g = ConcatPath([up, down])
    assert gap_distance(g.frame(0.25), up.frame(0.5)) < 1e-13
    assert gap_distance(g.frame(0.75), down.frame(0.5)) < 1e-13


def test_reversed_path():
    g = gamma_nor(1)
    r = g.reversed()
    assert gap_distance(r.frame(0.25), g.frame(0.75)) < 1e-14


def test_reparametrized_path_validation():
    g = gamma_nor(1)
    with pytest.raises(ValueError, match="increasing"):
        ReparametrizedPath(g, PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 1.2, 1.0]))
    with pytest.raises(ValueError, match="endpoints"):
        ReparametrizedPath(g, PiecewiseLinear([0.0, 1.0], [0.1, 1.0]))
    phi = PiecewiseLinear([0.0, 0.4, 1.0], [0.0, 0.7, 1.0])
    r = ReparametrizedPath(g, phi)
    assert gap_distance(r.frame(0.4), g.frame(0.7)) < 1e-14


def test_rotation_path_matches_matrix_action():
    theta = PiecewiseLinear.linear(0.0, 1.1)
    g = RotatedPath(l0_frame(2), theta)
    lam = 0.6
    R = rotation_matrix(2, 1.1 * lam)
    assert np.linalg.norm(g.frame(lam).F - R @ l0_frame(2).F, 2) < 1e-12


class _OneAtATime(LagrangianPath):
    """A subclass whose _frames_at stacks frames built one lambda at a time."""

    def __init__(self, base):
        super().__init__(base.n)
        self.base = base

    def _frames_at(self, lams):
        return np.stack([rotate(self.base, 0.8 * lam - 0.3).F for lam in lams.tolist()])


def _path_of_each_class(n=2, seed=31):
    """One path of every class, built afresh (with empty caches) on each call."""
    rng = np.random.default_rng(seed)
    L = random_lagrangian_frame(rng, n)
    rotation = RotatedPath(L, PiecewiseLinear([0.0, 0.4, 1.0], [0.1, -1.3, 2.0]))
    diagonal = UnitaryDiagonalPath([
        PiecewiseLinear([0.0, 0.5, 1.0], [0.2, 2.9, -0.4]),
        PiecewiseLinear.linear(-0.7, 1.6),
        PiecewiseLinear.linear(0.4, -1.1),
    ][:n])
    action = SymplecticActionPath(random_action(rng, n), L)
    return {
        "constant": ConstantPath(L),
        "rotation": rotation,
        "unitary_diagonal": diagonal,
        "action_on_frame": action,
        "action_on_path": SymplecticActionPath(random_action(rng, n), rotation),
        "action_per_lambda": SymplecticActionPath(lambda lams: rotation_matrix(n, 0.3 + lams), diagonal),
        "rotated": RotatedPath(action, 0.7),
        "reversed": diagonal.reversed(),
        "reparametrized": ReparametrizedPath(action, PiecewiseLinear([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])),
        "concat": ConcatPath([rotation, SymplecticActionPath(random_action(rng, n), rotation.frame(1.0))]),
        "one_at_a_time": _OneAtATime(L),
    }


# lambda = 0.5 is the junction of the concatenation; 0.5 and 0.25 repeat
_LAMS = np.array([0.0, 0.25, 0.5, 1.0, 0.1234567, 1.0 / 3.0, 0.5, 0.25, 0.9999, 0.7316])


@pytest.mark.parametrize("name", sorted(_path_of_each_class()))
def test_batched_frames_match_scalar_frames(name):
    # frames(lams) on one copy against frame(lam) lambda by lambda on a fresh
    # copy, so no value comes from a cache the other filled.  Each class has
    # one evaluator, so the two agree bit for bit wherever numpy's array
    # sin/cos give the scalar results; 1e-15 allows a last-bit difference
    batched, scalar = _path_of_each_class()[name], _path_of_each_class()[name]
    F = batched.frames(_LAMS)
    W = souriau_stack(F)
    assert F.shape == (_LAMS.size, 4, 2) and W.shape == (_LAMS.size, 2, 2)
    F1 = np.array([scalar.frame(lam).F for lam in _LAMS])
    W1 = np.array([scalar.souriau_matrix(lam) for lam in _LAMS])
    np.testing.assert_allclose(F, F1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(W, W1, rtol=0, atol=1e-15)
    for Fk in F:
        LagrangianFrame(2, Fk)  # checks orthonormality and isotropy
    # a second batch with old and new lambdas reads the cache for the old ones
    more = np.concatenate([_LAMS[:3], [0.61, 0.62]])
    assert np.array_equal(batched.frames(more)[:3], F[:3])


def test_concat_frames_at_the_junction_come_from_the_second_piece():
    paths = _path_of_each_class()
    g = paths["concat"]
    second = g.pieces[1]
    assert np.array_equal(g.frames([0.5, 0.75])[0], second.frame(0.0).F)
    assert np.array_equal(g.frames([0.75])[0], second.frame(0.5).F)
    assert np.array_equal(g.frames([0.25])[0], g.pieces[0].frame(0.5).F)


def test_a_concatenation_below_0_reads_its_first_piece():
    # below 0 the piece index was -1, so no piece wrote the row of np.empty
    # and the cache kept whatever memory was there
    g = ConcatPath([gamma_nor(1), gamma_nor(1)])
    with pytest.raises(ValueError, match="non-finite lambda nan"):
        g.frames([-0.25, np.nan, -0.5])
    assert g._cached().size == 0
    F = g.frames([-0.25, -0.5, 1.25])
    assert np.array_equal(F[0], g.pieces[0].frame(0.0).F)
    assert np.array_equal(F[1], g.pieces[0].frame(0.0).F)
    assert np.array_equal(F[2], g.pieces[1].frame(1.0).F)


@pytest.mark.parametrize("name", sorted(_path_of_each_class()))
def test_a_non_finite_lambda_raises_naming_it_and_caches_nothing(name):
    g = _path_of_each_class()[name]
    g.frames([0.1, 0.2])
    keys, cache = g._cached(), g._cache
    for lams, bad in (([-0.25, np.nan, -0.5], "nan"), ([0.2, np.inf], "inf"), ([0.3, -np.inf, np.nan], "-inf")):
        with pytest.raises(ValueError, match=f"non-finite lambda {bad}$"):
            g.frames(lams)
        assert g._cached() is keys and g._cache is cache


def test_batched_action_reports_the_first_non_symplectic_lambda():
    def fn(lams):
        return np.eye(4) * np.where(lams > 0.5, 2.0, 1.0)[:, None, None]

    g = SymplecticActionPath(fn, l0_frame(2))
    with pytest.raises(ValueError, match=r"lambda=0\.6 is not symplectic"):
        g.frames([0.1, 0.6, 0.7])


@pytest.mark.parametrize("action", [
    PolynomialAction([np.zeros((2, 2)), 1e300 * np.eye(2)]),
    lambda lams: np.full((lams.size, 2, 2), np.nan),
], ids=["overflow", "nan"])
def test_a_non_finite_action_matrix_is_a_value_error_naming_its_lambda(action):
    # the deviation is reported by its Frobenius norm, on which no SVD runs
    g = SymplecticActionPath(action, l0_frame(1))
    with pytest.raises(ValueError, match=r"lambda=0\.5 is not symplectic \(deviation nan\)"):
        g.frames([0.5])


def _sample_grid_node_by_node(g):
    """The sample grid as it was refined before batching: every interval of
    every level, one scalar gap distance at a time."""
    nodes = sorted(set(np.linspace(0.0, 1.0, 9)) | set(g.breakpoint_hints()))
    for _ in range(24):
        refined, dirty = [nodes[0]], False
        for a, b in zip(nodes[:-1], nodes[1:]):
            if gap_distance(g.frame(a), g.frame(b)) > 0.1:
                refined.append(0.5 * (a + b))
                dirty = True
            refined.append(b)
        nodes = refined
        if not dirty:
            return np.asarray(nodes)
    raise RuntimeError("sample grid did not reach the gap bound 0.1")


@pytest.mark.parametrize("name", sorted(_path_of_each_class()))
def test_sample_grid_matches_node_by_node_refinement(name):
    batched, scalar = _path_of_each_class()[name], _path_of_each_class()[name]
    assert np.array_equal(batched.sample_grid, _sample_grid_node_by_node(scalar))


def _sample_grid_depth_first(g):
    """The sample grid by recursion: from the same initial nodes, each
    interval halved depth first while the gap distance of its end frames,
    read one at a time, exceeds GRID_GAP."""
    def inside(a, b, depth):
        if gap_distance(g.frame(a), g.frame(b)) <= GRID_GAP:
            return []
        assert depth < 24, "sample grid did not reach the gap bound"
        m = 0.5 * (a + b)
        return inside(a, m, depth + 1) + [m] + inside(m, b, depth + 1)

    nodes = sorted(set(np.linspace(0.0, 1.0, 9)) | set(g.breakpoint_hints()))
    grid = nodes[:1]
    for a, b in zip(nodes[:-1], nodes[1:]):
        grid += inside(a, b, 0) + [b]
    return np.array(grid)


def _grid_paths():
    """A fresh path of every class, a transported path among them."""
    S = random_symmetric_family(np.random.default_rng(8), 2, 2, 1, 2.0)
    return {**_path_of_each_class(), "transported": transported_path(S, gamma_nor(2), steps=64)}


@pytest.mark.parametrize("name", sorted(_grid_paths()))
def test_sample_grid_matches_depth_first_refinement(name):
    batched, scalar = _grid_paths()[name], _grid_paths()[name]
    grid = batched.sample_grid
    assert np.array_equal(grid, _sample_grid_depth_first(scalar))
    F = batched.frames(grid)
    assert np.all(gap_distance(F[:-1], F[1:]) <= GRID_GAP)


@pytest.mark.parametrize("name", sorted(_path_of_each_class()))
def test_shuffled_frames_with_repeats_match_a_fresh_copy_bit_for_bit(name):
    # a shuffled batch with repeats and both zeros, read through a cache
    # that already holds some of its lambdas: each row is, bit for bit, the
    # frame a fresh copy evaluates for that lambda alone
    lams = np.concatenate([_LAMS, [-0.0, 0.0, 0.61803, 0.61803, 0.25]])
    lams = lams[np.random.default_rng(7).permutation(lams.size)]
    g, fresh = _path_of_each_class()[name], _path_of_each_class()[name]
    g.frames(_LAMS[[1, 4, 8]])
    F = g.frames(lams)
    assert F.shape == (lams.size, 4, 2)
    for lam, row in zip(lams.tolist(), F):
        assert row.tobytes() == fresh.frames([lam])[0].tobytes(), lam


def _spy_frames_at(g):
    """Record the lambdas of every _frames_at call of the path g."""
    calls = []
    frames_at = g._frames_at
    g._frames_at = lambda lams: calls.append(lams.tolist()) or frames_at(lams)
    return calls


def test_a_batch_of_old_and_new_lambdas_evaluates_the_new_ones_in_one_call():
    g = _path_of_each_class()["rotation"]
    calls = _spy_frames_at(g)
    g.frames([0.2, 0.4, 0.6])
    F = g.frames([0.6, 0.9, 0.2, -0.0, 0.9, 0.1, 0.0, 0.4])
    # each new lambda once, in the order first seen; -0.0 and 0.0 are one
    assert str(calls) == "[[0.2, 0.4, 0.6], [0.9, -0.0, 0.1]]"
    assert np.array_equal(F[[2, 7, 0]], g.frames([0.2, 0.4, 0.6]))
    assert np.array_equal(F[3], F[6]) and np.array_equal(F[1], F[4])
    g.frame(0.1)
    g.frames([0.0, 0.9, 0.2])
    assert len(calls) == 2


def test_the_cache_holds_each_distinct_lambda_once_in_sorted_order():
    g = _path_of_each_class()["action_on_path"]
    batches = [[0.5, 0.25, 0.5], [1.0, 0.0, 0.25, 0.75], [-0.0, 0.125, 0.875, 0.125], [0.3]]
    for lams in batches:
        g.frames(lams)
    g.frame(0.6)
    keys = g._cached()
    distinct = {lam for lams in batches for lam in lams} | {0.6}
    assert keys.size == len(distinct) == 9
    assert keys.tolist() == sorted(distinct) and np.all(np.diff(keys) > 0)
    assert g._cache.shape == (keys.size, 4, 2)
    assert not keys.flags.writeable and not g._cache.flags.writeable
    fresh = _path_of_each_class()["action_on_path"]
    for lam, row in zip(keys.tolist(), g._cache):
        assert row.tobytes() == fresh.frames([lam])[0].tobytes()


def test_a_held_frame_does_not_keep_a_replaced_cache_alive():
    g = _path_of_each_class()["unitary_diagonal"]
    g.frames([0.1, 0.2])
    L = g.frame(0.2)
    old = weakref.ref(g._cache)
    g.frames([0.7])
    assert old() is None
    assert not L.F.flags.writeable
    assert np.array_equal(L.F, g.frame(0.2).F)


def test_a_constant_path_keeps_no_frame_cache():
    # its frames are read-only views of its one frame, whatever reads them
    L = ConstantPath(l1_frame(5))
    assert maslov_pair(gamma_nor(5), L) == 1
    assert spectral_flow(BoundaryValueFamily(gamma_nor(5), L)).value == 1
    assert L._cached().size == 0
    F = L.frames([0.0, 0.3, 0.3, 1.0])
    assert F.shape == (4, 10, 5) and not F.flags.writeable
    assert all(np.array_equal(row, L.base.F) for row in F)
    assert L.frame(0.7) is L.base


def test_a_failed_evaluation_leaves_the_cache_as_it_was():
    def fn(lams):
        return np.eye(4) * np.where(lams > 0.5, 2.0, 1.0)[:, None, None]

    g = SymplecticActionPath(fn, l0_frame(2))
    F = g.frames([0.1, 0.2])
    with pytest.raises(ValueError, match="not symplectic"):
        g.frames([0.3, 0.6])
    assert g._cached().tolist() == [0.1, 0.2] and g._cache.shape == (2, 4, 2)
    assert np.array_equal(g.frames([0.2, 0.3, 0.1])[[0, 2]], F[[1, 0]])


class _ParentRotationPath(LagrangianPath):
    """The rotation of a fixed frame before RotatedPath took it over,
    verbatim but for the name, as the reference."""

    def __init__(self, base: LagrangianFrame, theta: PiecewiseLinear):
        super().__init__(base.n)
        self.base = base
        self.theta = theta

    def _frames_at(self, lams):
        return lagrangian_frames(rotation_matrix(self.n, self.theta(lams)) @ self.base.F)

    def breakpoint_hints(self):
        return self.theta.breakpoints()


class _ParentRotatedPath(LagrangianPath):
    """The rotation of a path by a constant angle before it took a frame or
    an angle function, verbatim but for the name, as the reference."""

    def __init__(self, path: LagrangianPath, theta: float):
        super().__init__(path.n)
        self.path = path
        self.theta = float(theta)
        self._R = rotation_matrix(path.n, self.theta)

    def _frames_at(self, lams):
        return lagrangian_frames(self._R @ self.path.frames(lams))

    def breakpoint_hints(self):
        return self.path.breakpoint_hints()


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_rotated_path_gives_the_frames_of_both_parent_rotations_bit_for_bit(n):
    # a frame rotated by a constant or piecewise-linear angle, against the
    # parent rotation of a frame; every class of path rotated by a constant
    # angle, against the parent rotation of a path; and every class rotated
    # by an angle function, against the parent rotation of the path by the
    # constant angle theta(lambda), one lambda at a time.  Rows and hints
    # equal, signed zeros included
    for seed in range(4):
        rng = np.random.default_rng([n, seed])
        lams = np.concatenate([_LAMS, rng.uniform(0.0, 1.0, 6)])
        constants = [0.0, np.pi / 8, -np.pi / 8, float(rng.uniform(-np.pi, np.pi))]
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 2)), [1.0]])
        angle = PiecewiseLinear(xs, rng.uniform(-3.0, 3.0, xs.size))
        L = random_lagrangian_frame(rng, n)
        for theta in [*constants, angle]:
            pl = theta if isinstance(theta, PiecewiseLinear) else PiecewiseLinear.constant(theta)
            g, ref = RotatedPath(L, theta), _ParentRotationPath(L, pl)
            assert _same_bits(g.frames(lams), ref.frames(lams)), (seed, theta)
            assert g.breakpoint_hints() == ref.breakpoint_hints()
        for name, base in _path_of_each_class(n, 100 * n + seed).items():
            for c in constants:
                g, ref = RotatedPath(base, c), _ParentRotatedPath(base, c)
                assert _same_bits(g.frames(lams), ref.frames(lams)), (seed, name, c)
                assert g.breakpoint_hints() == ref.breakpoint_hints()
            g = RotatedPath(base, angle)
            pointwise = np.concatenate([_ParentRotatedPath(base, angle(lam)).frames([lam]) for lam in lams])
            assert _same_bits(g.frames(lams), pointwise), (seed, name)
            assert g.breakpoint_hints() == tuple(sorted(set(base.breakpoint_hints()) | set(xs)))


@pytest.mark.parametrize("make, bad", [
    (lambda: gamma_nor(0), 0),
    (lambda: gamma_nor(-2), -2),
    (lambda: gamma_nor_prime(0), 0),
    (lambda: UnitaryDiagonalPath([]), 0),
], ids=["gamma_nor(0)", "gamma_nor(-2)", "gamma_nor_prime(0)", "unitary_diagonal([])"])
def test_a_path_of_half_dimension_below_1_is_rejected(make, bad):
    with pytest.raises(ValueError, match=f"half-dimension n must be a positive integer, got {bad}$"):
        make()
