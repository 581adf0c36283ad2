"""Tests for frames, representatives, intersections and the gap metric."""

import ast
import pathlib
import re

import numpy as np
import pytest

from maslovflow import (
    LagrangianFrame,
    directed_gap,
    frame_from_basis,
    gamma_nor,
    gap_distance,
    intersection_dimension,
    kato_projection_identity_check,
    l0_frame,
    l1_frame,
    rotate,
    souriau,
    standard_J,
    subspace_frame,
    unitary_representative,
)
from maslovflow import symplectic
from maslovflow.paths import SymplecticActionPath
from maslovflow.suites import random_lagrangian_frame
from maslovflow.symplectic import (
    SouriauMatrix,
    gaps_exceed,
    lagrangian_frames,
    norm2,
    souriau_stack,
    within,
    within_each,
)

TOL = 1e-10


def test_standard_j_n1():
    assert np.array_equal(standard_J(1), [[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_standard_j_identities(n):
    J = standard_J(n)
    assert np.allclose(J @ J, -np.eye(2 * n), atol=1e-15)
    assert np.array_equal(J.T, -J)
    assert np.linalg.norm(J, 2) == pytest.approx(1.0, abs=1e-14)


def test_standard_j_rejects_zero():
    with pytest.raises(ValueError):
        standard_J(0)


def test_frame_from_basis_horizontal_vertical():
    n = 3
    B0 = np.vstack([np.eye(n), np.zeros((n, n))])
    F = frame_from_basis(B0)
    assert gap_distance(F, l0_frame(n)) < TOL
    B1 = np.vstack([np.zeros((n, n)), np.eye(n)])
    assert gap_distance(frame_from_basis(B1), l1_frame(n)) < TOL


def test_frame_from_basis_diagonal_line():
    # any line in R^2 is Lagrangian
    F = frame_from_basis(np.array([[1.0], [1.0]]))
    assert F.n == 1
    v = F.F[:, 0]
    assert abs(abs(v @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1.0) < TOL


def test_frame_from_basis_rank_deficient():
    B = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="rank"):
        frame_from_basis(B)


def test_frame_from_basis_non_isotropic():
    # span(e1, e_{n+1}) carries omega(e1, e2) = 1
    B = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="isotropic"):
        frame_from_basis(B)


def test_lagrangian_frame_invariants_enforced():
    with pytest.raises(ValueError, match="orthonormal"):
        LagrangianFrame(1, np.array([[2.0], [0.0]]))


def test_unitary_representative_trivial():
    n = 2
    assert np.allclose(unitary_representative(l0_frame(n)), np.eye(n), atol=TOL)
    assert np.allclose(unitary_representative(l1_frame(n)), 1j * np.eye(n), atol=TOL)


def test_unitary_representative_gamma_nor():
    # reference path representative diag(e^{i pi lam}, 1, ...) up to right O(n),
    # so the Souriau matrix is exactly diag(e^{2 pi i lam}, 1, ...)
    n = 3
    g = gamma_nor(n)
    for lam in (0.0, 0.2, 0.55, 1.0):
        W = souriau(g.frame(lam)).W
        expected = np.diag([np.exp(2j * np.pi * lam)] + [1.0] * (n - 1))
        assert np.linalg.norm(W - expected, 2) < 1e-12


def test_souriau_right_o_n_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = 1 + int(rng.integers(0, 3))
        L = random_lagrangian_frame(rng, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        L2 = LagrangianFrame(n, L.F @ Q)
        assert np.linalg.norm(souriau(L).W - souriau(L2).W, 2) < 1e-10


def _frame_with_horizontal_intersection(rng, n, k):
    """Random Lagrangian frame whose span meets R^n x {0} in dimension k."""
    angles = rng.uniform(0.3, np.pi - 0.3, size=n - k)
    cols = []
    for j in range(k):
        e = np.zeros(2 * n)
        e[j] = 1.0
        cols.append(e)
    for j, th in enumerate(angles, start=k):
        e = np.zeros(2 * n)
        e[j] = np.cos(th)
        e[n + j] = np.sin(th)
        cols.append(e)
    F = np.column_stack(cols)
    # a unitary-block symplectic map preserves both L0 and intersection dims
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = np.block([[Q, np.zeros((n, n))], [np.zeros((n, n)), Q]])
    return frame_from_basis(M @ F)


def test_souriau_unit_eigenvalue_multiplicity_law():
    # phases of W within 1e-8 of zero count dim(L cap R^n x {0}); the oracle
    # is the SVD-based intersection dimension
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = 1 + int(rng.integers(0, 4))
        k = int(rng.integers(0, n + 1))
        L = _frame_with_horizontal_intersection(rng, n, k)
        phases = np.angle(np.linalg.eigvals(souriau(L).W))
        unit_mult = int(np.sum(np.abs(phases) < 1e-8))
        assert unit_mult == intersection_dimension(L, l0_frame(n)) == k


def test_intersection_dimension_basic():
    n = 2
    L = random_lagrangian_frame(np.random.default_rng(2), n)
    assert intersection_dimension(L, L) == n
    assert intersection_dimension(l0_frame(n), l1_frame(n)) == 0


def test_intersection_gamma_nor_half():
    # gamma_nor(1/2) = span(e_{n+1}, e_2, ..., e_n) meets L0 in dimension n-1
    for n in (1, 2, 3):
        g = gamma_nor(n)
        cols = [np.eye(2 * n)[:, n]] + [np.eye(2 * n)[:, j] for j in range(1, n)]
        explicit = frame_from_basis(np.column_stack(cols))
        assert gap_distance(g.frame(0.5), explicit) < 1e-12
        assert intersection_dimension(g.frame(0.5), l0_frame(n)) == n - 1


def test_intersection_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        intersection_dimension(l0_frame(1), l0_frame(2))


def test_gap_distance_lines():
    n = 1
    assert gap_distance(l0_frame(n), l0_frame(n)) == 0.0
    assert gap_distance(l0_frame(n), l1_frame(n)) == pytest.approx(1.0, abs=1e-14)
    for theta in (0.2, 0.7, 1.3):
        Lt = frame_from_basis(np.array([[np.cos(theta)], [np.sin(theta)]]))
        # oracle: eigenvalues of the 2x2 projector difference are +-|sin theta|
        P = l0_frame(n).projector - Lt.projector
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(P))))
        assert oracle == pytest.approx(abs(np.sin(theta)), abs=1e-12)
        assert gap_distance(l0_frame(n), Lt) == pytest.approx(oracle, abs=1e-13)


def test_gap_distance_ambient_mismatch():
    with pytest.raises(ValueError, match="ambient"):
        gap_distance(l0_frame(1), l0_frame(2))


def _pairs_at_the_bound(rng, n, rows, bound):
    """Two stacks (rows, 2n, n) of Lagrangian frames whose largest principal
    angle is asin(bound) (1 +- 10^-u), u uniform in [5, 16]; each other
    angle is 0, a uniform fraction of it or equal to it.  Every frame
    carries an orthonormality defect of up to about 2e-11."""
    top = np.arcsin(bound) * (1 + rng.choice([-1.0, 1.0], rows) * 10.0 ** -rng.uniform(5, 16, rows))
    share = np.choose(rng.integers(3, size=(rows, n - 1)), [0.0, rng.uniform(size=(rows, n - 1)), 1.0])
    theta = top[:, None] * np.concatenate([np.ones((rows, 1)), share], axis=1)
    U = np.linalg.qr(rng.normal(size=(rows, n, n)) + 1j * rng.normal(size=(rows, n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(rows, n, n)))[0]
    # U R^n and U V diag(e^{i theta}) R^n meet at the principal angles theta
    U2 = U @ V * np.exp(1j * theta)[:, None, :]
    return tuple(lagrangian_frames(np.concatenate([W.real, W.imag], axis=1)
                                   + 1.5e-12 * rng.normal(size=(rows, 2 * n, n)))
                 for W in (U, U2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gaps_exceed_is_gap_distance_above_the_bound_with_an_svd_only_in_the_band(monkeypatch, n):
    bound = 0.1
    Q1, Q2 = _pairs_at_the_bound(np.random.default_rng(n), n, 2000, bound)
    expected = gap_distance(Q1, Q2) > bound
    M = np.swapaxes(Q1, 1, 2) @ Q2
    s = n - np.sum(M * M, axis=(1, 2))
    band = (s > bound**2 - n * 1e-8) & (s <= n * (bound**2 + 1e-8))
    seen = []
    monkeypatch.setattr(symplectic, "gap_distance", lambda A, B: seen.append((A, B)) or gap_distance(A, B))
    got = gaps_exceed(Q1, Q2, bound)
    assert got.dtype == bool and np.array_equal(got, expected)
    # the band and both decided branches occur
    assert band.any() and (got & ~band).any() and (~got & ~band).any()
    # the SVD runs on exactly the rows the overlap bound leaves open
    A, B = (np.concatenate(x) for x in zip(*seen))
    assert np.array_equal(A, Q1[band]) and np.array_equal(B, Q2[band])


def test_directed_gap_lines_dense_sampling_oracle():
    theta = 0.9
    L1 = l0_frame(1)
    L2 = frame_from_basis(np.array([[np.cos(theta)], [np.sin(theta)]]))
    # oracle: sup over the unit sphere of L1 (two points for a line) of the
    # distance to L2, realized by densely sampling the sphere of L2 as well
    P2 = L2.projector
    worst = max(
        np.linalg.norm(s * L1.F[:, 0] - P2 @ (s * L1.F[:, 0])) for s in (-1.0, 1.0)
    )
    assert worst == pytest.approx(np.sin(theta), abs=1e-12)
    assert directed_gap(L1, L2) == pytest.approx(worst, abs=1e-12)
    assert directed_gap(L2, L1) == pytest.approx(worst, abs=1e-12)


def test_directed_gap_max_formula_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 1 + int(rng.integers(0, 3))
        L1 = random_lagrangian_frame(rng, n)
        L2 = random_lagrangian_frame(rng, n)
        dg = max(directed_gap(L1, L2), directed_gap(L2, L1))
        assert abs(dg - gap_distance(L1, L2)) < 1e-12


def test_directed_gap_zero_subspace():
    with pytest.raises(ValueError, match="zero subspace"):
        directed_gap(np.zeros((4, 0)), l0_frame(2))


def test_kato_identity_equal_projections():
    P = l0_frame(2).projector
    rep = kato_projection_identity_check(P, P)
    assert rep.hypothesis_met
    assert rep.norm_P_minus_Q == 0.0


def test_kato_identity_lines():
    theta = 0.6
    P = l0_frame(1).projector
    Q = frame_from_basis(np.array([[np.cos(theta)], [np.sin(theta)]])).projector
    rep = kato_projection_identity_check(P, Q)
    assert rep.hypothesis_met
    for val in (rep.norm_ImP_Q, rep.norm_ImQ_P, rep.norm_P_minus_Q):
        assert val == pytest.approx(np.sin(theta), abs=1e-12)


def test_kato_identity_orthogonal_lines_hypothesis_not_met():
    rep = kato_projection_identity_check(l0_frame(1).projector, l1_frame(1).projector)
    assert not rep.hypothesis_met
    assert rep.norm_ImP_Q == pytest.approx(1.0, abs=1e-13)


def test_kato_rejects_non_projector():
    with pytest.raises(ValueError, match="projection"):
        kato_projection_identity_check(np.array([[0.5, 0.0], [0.0, 0.2]]), l0_frame(1).projector)


def test_rotate_basics():
    n = 2
    L = random_lagrangian_frame(np.random.default_rng(4), n)
    assert gap_distance(rotate(L, 0.0), L) < 1e-14
    assert gap_distance(rotate(l0_frame(n), np.pi / 2), l1_frame(n)) < 1e-14
    assert gap_distance(rotate(L, np.pi), L) < 1e-13


def test_rotate_composition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 1 + int(rng.integers(0, 3))
        L = random_lagrangian_frame(rng, n)
        a, b = rng.uniform(-2, 2, size=2)
        assert gap_distance(rotate(rotate(L, a), b), rotate(L, a + b)) < 1e-12


def test_subspace_frame_general():
    Q = subspace_frame(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    assert Q.shape == (4, 2)
    assert np.linalg.norm(Q.T @ Q - np.eye(2), 2) < 1e-12


def _random_matrix(rng, rows, cols, complex_):
    M = rng.standard_normal((rows, cols))
    if complex_:
        M = M + 1j * rng.standard_normal((rows, cols))
    return M * 10.0 ** rng.uniform(-12, 1)


@pytest.mark.parametrize("complex_", [False, True])
def test_norm2_is_bitwise_numpy_spectral_norm(complex_):
    rng = np.random.default_rng(11)
    for _ in range(200):
        M = _random_matrix(rng, rng.integers(2, 7), rng.integers(2, 7), complex_)
        assert norm2(M) == np.linalg.norm(M, 2)


@pytest.mark.parametrize("complex_", [False, True])
def test_within_matches_spectral_norm_test_on_random_matrices(complex_):
    rng = np.random.default_rng(12)
    for _ in range(400):
        M = _random_matrix(rng, rng.integers(2, 7), rng.integers(2, 7), complex_)
        ref = np.linalg.norm(M, 2)
        for tol in (ref, ref * (1 + 1e-13), ref * (1 - 1e-13), 10.0 ** rng.uniform(-12, 1)):
            assert within(M, tol) == (ref <= tol)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("tol", [1e-10, 1e-9, 1e-8, 1e-6, 1.0])
@pytest.mark.parametrize("rel", [-1e-6, -1e-13, 0.0, 1e-13, 1e-6])
def test_within_on_rank_one_edge(complex_, tol, rel):
    # a rank-one matrix has ||M||_F = ||M||_2, the case where the Frobenius
    # shortcut is tightest
    rng = np.random.default_rng(13)
    for _ in range(50):
        size = rng.integers(2, 7)
        u = _random_matrix(rng, size, 1, complex_)
        v = _random_matrix(rng, size, 1, complex_)
        M = u @ v.conj().T
        M = M * (tol * (1 + rel) / np.linalg.norm(M, 2))
        assert within(M, tol) == (np.linalg.norm(M, 2) <= tol)


def _reported(err) -> float:
    return float(re.findall(r"\d\.\d{3}e[+-]\d+", str(err.value))[-1])


def test_validation_errors_report_the_spectral_norm():
    # every deviation below has ||.||_F > ||.||_2, so the message must carry
    # the 2-norm, not the Frobenius norm of the shortcut
    F = np.zeros((4, 2))
    F[0, 0] = F[1, 1] = 1.5
    with pytest.raises(ValueError, match="orthonormal") as err:
        LagrangianFrame(2, F)
    assert _reported(err) == float(f"{np.linalg.norm(F.T @ F - np.eye(2), 2):.3e}") == 1.25

    F = np.zeros((4, 2))
    F[0, 0] = F[2, 1] = 1.0
    with pytest.raises(ValueError, match="isotropic") as err:
        LagrangianFrame(2, F)
    assert _reported(err) == 1.0

    with pytest.raises(ValueError, match="unitary") as err:
        SouriauMatrix(2, 1.5 * np.eye(2))
    assert _reported(err) == 1.25
    with pytest.raises(ValueError, match="symmetric") as err:
        SouriauMatrix(2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert _reported(err) == 2.0

    with pytest.raises(ValueError, match="not symplectic") as err:
        SymplecticActionPath(lambda lams: 2.0 * np.eye(4)[None], l0_frame(2)).frame(0.5)
    # A^T J A - J = 3 J: 2-norm 3, Frobenius norm 6
    assert _reported(err) == 3.0


def test_standard_j_is_one_read_only_array_per_n():
    for n in (1, 2, 3):
        J = standard_J(n)
        assert J is standard_J(n) is standard_J(np.int64(n))
        assert not J.flags.writeable
        with pytest.raises(ValueError):
            J[0, 0] = 1.0
    with pytest.raises(ValueError):
        standard_J(2.0)


def _spectral_norm_calls(tree):
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "norm" or ast.unparse(node.func.value) not in ("np.linalg", "numpy.linalg"):
            continue
        ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
            yield node.lineno


def test_no_numpy_spectral_norm_in_library():
    # one spectral-norm idiom (norm2, and within for invariant checks), so the
    # Frobenius shortcut cannot be bypassed unnoticed
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "maslovflow"
    found = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _spectral_norm_calls(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_spectral_norm_calls(ast.parse("np.linalg.norm(M - M.T, 2)"))) == [1]
    assert list(_spectral_norm_calls(ast.parse("numpy.linalg.norm(M, ord=2)"))) == [1]


@pytest.mark.parametrize("message", [
    "columns not orthonormal",
    "span is not isotropic",
    "frame does not yield a unitary representative",
    "matrix is not unitary",
    "matrix is not symmetric",
    "is not symplectic",
])
def test_each_invariant_check_is_written_once(message):
    # the scalar dataclasses validate through the stack checkers, so each
    # invariant has one check and one message
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "maslovflow"
    assert sum(path.read_text().count(message) for path in src.glob("*.py")) == 1


@pytest.mark.parametrize("complex_", [False, True])
def test_within_each_matches_within_on_a_stack(complex_):
    rng = np.random.default_rng(14)
    tol = 1e-6
    stack = []
    # Frobenius norm above tol while the 2-norm is below it, just below it,
    # and just above it: only the exact 2-norm decides these
    for s in (0.9, 1 - 1e-13, 1 + 1e-13):
        Q, _ = np.linalg.qr(_random_matrix(rng, 3, 3, complex_))
        M = Q @ np.diag([s * tol, s * tol, 0.5 * tol])
        assert np.sqrt(np.vdot(M, M).real) > tol
        stack.append(M)
    stack += [_random_matrix(rng, 3, 3, complex_) for _ in range(200)]
    stack = np.array(stack)
    expected = [within(M, tol) for M in stack]
    assert expected[:3] == [True, True, False]
    assert within_each(stack, tol).tolist() == expected
    assert within_each(stack, tol).tolist() == [norm2(M) <= tol for M in stack]
    assert np.array_equal(norm2(stack), [norm2(M) for M in stack])


def test_stack_checks_reject_what_the_scalar_checks_reject():
    # the second frame of each stack is the bad one; the message carries its
    # 2-norm, as the scalar check's does
    good = l0_frame(2).F
    F = np.zeros((4, 2))
    F[0, 0] = F[1, 1] = 1.5
    with pytest.raises(ValueError, match="orthonormal") as err:
        lagrangian_frames(np.array([good, F]))
    assert _reported(err) == 1.25
    F = np.zeros((4, 2))
    F[0, 0] = F[2, 1] = 1.0
    with pytest.raises(ValueError, match="isotropic") as err:
        lagrangian_frames(np.array([good, F]))
    assert _reported(err) == 1.0
    with pytest.raises(ValueError, match="not orthonormal") as err:
        gap_distance(np.array([good, 2.0 * good]), np.array([good, good]))
    assert _reported(err) == 3.0
    frames = np.array([good, l1_frame(2).F, random_lagrangian_frame(np.random.default_rng(15), 2).F])
    W = souriau_stack(frames)
    assert np.array_equal(W, [souriau(LagrangianFrame(2, F)).W for F in frames])
    with pytest.raises(ValueError, match="unitary representative"):
        souriau_stack(np.array([good, 1.5 * good]))


@pytest.mark.parametrize("check, message", [
    (lambda: LagrangianFrame(1, np.full((2, 1), np.nan)), r"columns not orthonormal: .* = nan"),
    (lambda: gap_distance(np.full((3, 2, 1), np.nan), np.zeros((3, 2, 1))),
     "frame columns are not orthonormal: deviation nan"),
    (lambda: LagrangianFrame(1, np.array([[np.inf], [0.0]])), r"columns not orthonormal: .* = (nan|inf)"),
    (lambda: kato_projection_identity_check(np.full((2, 2), np.nan), np.eye(2)),
     "P is not an orthogonal projection"),
], ids=["nan-frame", "nan-gap", "inf-frame", "nan-kato"])
def test_a_non_finite_matrix_fails_its_check_without_an_svd(check, message):
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            check()
