"""Tests for shooting spectra, spectral flow and the gap diagnostics.

The closed-form spectra of the two reference boundary families are the main
oracles: the branch through zero has multiplicity one and slope +-pi, the
stationary branches at pi/2 + k pi have multiplicity n - 1, and the families
merge at the endpoints.
"""

from collections import Counter

import numpy as np
import pytest

from maslovflow import (
    BoundaryValueFamily,
    ConstantPath,
    EigenvalueAtWindowEdge,
    EigenvalueCountMismatch,
    PiecewiseLinear,
    SymmetricFamily,
    UnitaryDiagonalPath,
    conjugation_spectrum_check,
    discretized_gap_diagnostic,
    eigen_detector,
    fundamental_solution,
    gamma_nor,
    gamma_nor_prime,
    intersection_dimension,
    l0_frame,
    l1_frame,
    maslov_pair,
    spectral_flow,
    spectral_flow_shifted,
    spectrum_window,
    standard_J,
)
from maslovflow import specflow
from maslovflow.specflow import _STACK, _clean_windows, _graph_matrix
from maslovflow.suites import random_pair, random_symmetric_family


def reference_spectrum(kind: str, n: int, lam: float, lo: float, hi: float):
    """Expected eigenvalues with multiplicities in (lo, hi).

    kind 'nor': branch pi lam - pi/2 + k pi (mult 1) plus pi/2 + k pi
    (mult n-1); kind 'prime': branch -pi lam + pi/2 + k pi instead.
    Coincident values merge by adding multiplicities.
    """
    vals = {}
    moving = np.pi * lam - np.pi / 2 if kind == "nor" else -np.pi * lam + np.pi / 2
    for k in range(-8, 9):
        mu = moving + k * np.pi
        if lo < mu < hi:
            vals[round(mu, 9)] = vals.get(round(mu, 9), 0) + 1
    if n > 1:
        for k in range(-8, 9):
            mu = np.pi / 2 + k * np.pi
            if lo < mu < hi:
                key = round(mu, 9)
                vals[key] = vals.get(key, 0) + (n - 1)
    return sorted(vals.items())


def assert_spectrum_matches(window, expected, tol=1e-7):
    got = window.eigenvalues
    assert len(got) == len(expected), f"{got} vs {expected}"
    for (mu, mult), (emu, emult) in zip(got, expected):
        assert abs(mu - emu) < tol
        assert mult == emult


def test_transfer_matrix_closed_form():
    n = 2
    J = standard_J(n)
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)))
    for mu in (0.0, 0.3, -1.2, np.pi / 2):
        Phi = fam.transfer(0.4, mu)
        assert np.allclose(Phi, np.cos(mu) * np.eye(2 * n) - np.sin(mu) * J, atol=1e-15)
    assert np.allclose(fam.transfer(0.4, 0.0), np.eye(2 * n), atol=1e-15)


def test_transfer_matrix_symplectic_and_converged():
    # oracle: step-halving; the coefficient is J-Hamiltonian so Phi must be
    # symplectic up to integration error.  S(t) = [[0.4 + 0.3 t, -0.2 t^2],
    # [-0.2 t^2, -0.1 + 0.5 t]], as coefficients of t^0, t^1, t^2
    n = 1
    J = standard_J(n)
    S = SymmetricFamily([[
        [[0.4, 0.0], [0.0, -0.1]],
        [[0.3, 0.0], [0.0, 0.5]],
        [[0.0, -0.2], [-0.2, 0.0]],
    ]])
    g1, g2 = gamma_nor(n), ConstantPath(l1_frame(n))
    Phi1 = BoundaryValueFamily(g1, g2, S, steps=128).transfer(0.5, 0.7)
    Phi2 = BoundaryValueFamily(g1, g2, S, steps=256).transfer(0.5, 0.7)
    assert np.linalg.norm(Phi1 - Phi2, 2) < 1e-9
    assert np.linalg.norm(Phi2.T @ J @ Phi2 - J, 2) < 1e-8


def test_transfer_matrix_rejects_few_steps():
    with pytest.raises(ValueError, match="steps"):
        BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)), steps=8)


def test_eigen_detector_reference_values():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    assert eigen_detector(fam, 0.0, np.pi / 2) < 1e-9
    assert eigen_detector(fam, 0.0, 0.0) > 0.1


def test_eigen_detector_transversal_constant_pair():
    fam = BoundaryValueFamily(ConstantPath(l0_frame(2)), ConstantPath(l1_frame(2)))
    assert eigen_detector(fam, 0.37, 0.0) > 0.1


def test_detector_matches_smallest_singular_value_of_the_stacked_frames():
    # oracle: the SVD of [orthonormal basis of Phi gamma_1 | frame of gamma_2]
    rng = np.random.default_rng(8)
    for i in range(12):
        n = 1 + i % 3
        g1, g2 = random_pair(rng, n)
        S = None if i % 2 == 0 else random_symmetric_family(rng, n, 2, 1 + i % 3 // 2, 1.5)
        fam = BoundaryValueFamily(g1, g2, S, steps=64)
        lam = float(rng.uniform(0.0, 1.0))
        mus = np.linspace(-4.0, 4.0, 40)
        g = fam.detector_batch(lam, mus)[0]
        assert g.shape == mus.shape
        F1, F2 = g1.frame(lam).F, g2.frame(lam).F
        for mu, got in zip(mus, g):
            Q = np.linalg.qr(fam.transfer(lam, mu) @ F1)[0]
            expected = np.linalg.svd(np.hstack([Q, F2]), compute_uv=False)[-1]
            assert abs(got - expected) <= 1e-14


def test_spectrum_window_reference_n1():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    w = spectrum_window(fam, 0.0, -np.pi + 1e-3, np.pi - 1e-3)
    assert_spectrum_matches(w, [(-np.pi / 2, 1), (np.pi / 2, 1)])
    # at interior lambda the stationary branch has multiplicity n - 1 = 0,
    # so only the moving branch remains
    w = spectrum_window(fam, 0.5, -np.pi + 1e-3, np.pi - 1e-3)
    assert_spectrum_matches(w, [(0.0, 1)])


def test_spectrum_window_prime_quarter():
    fam = BoundaryValueFamily(ConstantPath(l0_frame(1)), gamma_nor_prime(1))
    w = spectrum_window(fam, 0.25, -np.pi / 2 + 1e-6, np.pi / 2 - 1e-6)
    assert_spectrum_matches(w, [(np.pi / 4, 1)])


@pytest.mark.parametrize(
    "kind,n",
    [("nor", 1), ("nor", 2), ("nor", 3), ("nor", 4), ("nor", 5), ("nor", 6), ("prime", 1), ("prime", 2)],
)
def test_spectrum_window_closed_form_families(kind, n):
    # n >= 4 needs the scan step cap pi/(4n): at S = 0 arg det C turns by
    # 2n per unit mu, and at pi/8 it would turn by n pi/4 >= pi per interval
    if kind == "nor":
        fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)))
    else:
        fam = BoundaryValueFamily(ConstantPath(l0_frame(n)), gamma_nor_prime(n))
    lo, hi = -np.pi + 0.1, np.pi - 0.1
    for lam in (0.0, 0.3, 0.5, 0.8, 1.0):
        assert_spectrum_matches(
            spectrum_window(fam, lam, lo, hi), reference_spectrum(kind, n, lam, lo, hi)
        )


@pytest.mark.parametrize("d", [1e-4, 1e-5, 1e-6])
def test_spectrum_window_separates_a_close_pair(d):
    # S = 0, W1 = diag(e^{0.6i}, e^{(0.6 + 2d)i}), gamma_2 = R^2 x {0}: the
    # eigenvalues are 0.3 and 0.3 + d (+ k pi), both simple and inside one
    # scan interval, with no sign change of the determinant between them
    g1 = UnitaryDiagonalPath([PiecewiseLinear.constant(0.3), PiecewiseLinear.constant(0.3 + d)])
    window = spectrum_window(BoundaryValueFamily(g1, ConstantPath(l0_frame(2))), 0.5, -1.3, 1.4)
    assert [m for _, m in window.eigenvalues] == [1, 1]
    assert abs(window.eigenvalues[0][0] - 0.3) <= 1e-9
    assert abs(window.eigenvalues[1][0] - (0.3 + d)) <= 1e-9


def test_spectrum_window_matches_eigenphase_oracle_at_zero_potential():
    # S = 0: Phi_mu(1) gamma_1 has W = e^{-2 i mu} W1, so the spectrum is
    # phi/2 + k pi over the eigenphases phi of W1 conj(W2), with multiplicity
    def souriau(F, n):
        U = F[:n] + 1j * F[n:]
        return U @ U.T

    rng = np.random.default_rng(12)
    for i in range(20):
        n = 1 + i % 3
        g1, g2 = random_pair(rng, n, force_nonadmissible=(i % 5 == 4))
        lam = float(rng.uniform(0.0, 1.0))
        ((window,),) = _clean_windows((BoundaryValueFamily(g1, g2),), np.array([lam]), -2.03, 2.11)
        C = souriau(g1.frame(lam).F, n) @ souriau(g2.frame(lam).F, n).conj()
        half = np.angle(np.linalg.eigvals(C)) / 2.0
        expected = np.sort(
            [mu for p in half for mu in p + np.pi * np.arange(-3, 4) if window.mu_min < mu < window.mu_max]
        )
        got = window.values()
        assert got.shape == expected.shape, (i, window.eigenvalues, expected)
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-9


def _t_dependent_family(n: int, seed: int) -> SymmetricFamily:
    rng = np.random.default_rng(seed)
    return SymmetricFamily(rng.normal(size=(2, 4, 2 * n, 2 * n)) * 0.6)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("potential", [False, True])
def test_spectrum_window_locates_simple_eigenvalues_in_few_detector_calls(n, potential, monkeypatch):
    # simple eigenvalues take secant steps: a window costs a dozen batched
    # detector calls at most, where bisection on the count alone needs one
    # scan and about 30 levels to reach tol = 1e-10 from a scan interval
    calls = []
    batch = BoundaryValueFamily.detector_batch

    def spy(self, lam, mus):
        calls.append(np.size(mus))
        return batch(self, lam, mus)

    monkeypatch.setattr(BoundaryValueFamily, "detector_batch", spy)
    S = _t_dependent_family(n, seed=5) if potential else None
    fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)), S)
    found = 0
    for lam in np.linspace(0.05, 0.95, 7):
        calls.clear()
        window = spectrum_window(fam, float(lam), -1.45, 1.45)
        assert len(calls) <= 12, (lam, calls)
        assert all(m == 1 for _, m in window.eigenvalues)
        found += len(window.eigenvalues)
        if not potential:  # the branch pi lam - pi/2 alone lies in the window
            assert len(window.eigenvalues) == 1
            assert abs(window.eigenvalues[0][0] - (np.pi * lam - np.pi / 2)) <= 1e-10
        for mu, _ in window.eigenvalues:
            assert eigen_detector(fam, float(lam), mu) < 1e-8
    assert found >= 6


class _Synthetic:
    """Detector data of a made-up operator whose n eigenphases all equal
    phi(mu) = (r - mu) mod 2pi, so the eigenvalues are r + 2 pi k, each of
    multiplicity n, and the signed determinant f(mu) given by the caller."""

    s_norm = 0.0

    def __init__(self, r, f, n=1):
        self.r, self.f, self.n, self.calls = r, f, n, 0

    def detector_batch(self, lam, mus):
        self.calls += 1
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        phi = (self.r - mus) % (2.0 * np.pi)
        psi = np.minimum(phi / 2.0, np.pi - phi / 2.0)
        return np.sqrt(2.0) * np.sin(psi / 2.0), self.f(mus), self.n * phi


def test_spectrum_window_secant_stall_still_ends_within_tol():
    # a flat simple root (f ~ (mu - r)^9) next to a steep one: regula falsi
    # creeps towards the flat root from one side, so the locator must fall
    # back to halving and still end within tol, in at most twice the levels
    # of plain bisection (scan intervals 0.386 wide: 32 levels to 1e-10)
    r = 0.3
    steep = r + 2.0 * np.pi
    fam = _Synthetic(r, lambda mu: (mu - r) ** 9 * np.tanh(50.0 * (mu - steep)))
    window = spectrum_window(fam, 0.0, -1.0, 7.5)
    assert [m for _, m in window.eigenvalues] == [1, 1]
    assert abs(window.eigenvalues[0][0] - r) <= 1e-10
    assert abs(window.eigenvalues[1][0] - steep) <= 1e-10
    assert 12 < fam.calls <= 1 + 2 * 32


def test_spectrum_window_flat_double_eigenvalue_still_ends_within_tol():
    # n = 2 with det ~ (mu - r)^18: the secant runs on |det|^(1/2) = |mu - r|^9,
    # still flat at the root, so it creeps towards it from one side; the
    # locator must fall back to halving and still end within tol, in at most
    # twice the levels of plain bisection (scan intervals 0.3125 wide: 32
    # levels to 1e-10)
    r = 0.3
    fam = _Synthetic(r, lambda mu: (mu - r) ** 18, n=2)
    window = spectrum_window(fam, 0.0, -1.0, 1.5)
    assert [m for _, m in window.eigenvalues] == [2]
    assert abs(window.eigenvalues[0][0] - r) <= 1e-10
    assert 1 + 32 < fam.calls <= 1 + 2 * 32


def test_spectrum_window_count_certificate_rejects_a_flipped_determinant():
    # n = 1, S = 0, window (-1, 1): the scan points are -1, -0.75, ..., 1;
    # flipping the determinant's sign at mu = 0.5 makes two runs disagree
    # with the parity of the eigenphase count
    class Flipped(BoundaryValueFamily):
        def detector_batch(self, lam, mus):
            g, dets, sums = super().detector_batch(lam, mus)
            at = np.isclose(np.atleast_1d(mus), 0.5, rtol=0.0, atol=1e-12)
            return g, np.where(at, -dets, dets), sums

    fam = Flipped(gamma_nor(1), ConstantPath(l1_frame(1)))
    assert spectrum_window(BoundaryValueFamily(fam.gamma1, fam.gamma2), 0.3, -1.0, 1.0).eigenvalues
    with pytest.raises(EigenvalueCountMismatch, match=r"lambda=0\.3 on mu in \["):
        spectrum_window(fam, 0.3, -1.0, 1.0)


def test_spectrum_window_endpoint_collision():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(EigenvalueAtWindowEdge, match="shift the window"):
        spectrum_window(fam, 0.0, -np.pi / 2, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_spectrum_window_rejects_a_tolerance_that_is_not_positive(tol):
    # the window holds an eigenvalue, so a bracket would be narrowed to tol
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(ValueError, match="tol must be positive"):
        spectrum_window(fam, 0.3, -1.4, 1.4, tol=tol)


def _walls(n: int, c: float) -> BoundaryValueFamily:
    """Dirichlet walls {0} x R^n at both ends with S = c lambda I: the
    eigenvalues are k pi + c lambda, each of multiplicity n."""
    wall = ConstantPath(l1_frame(n))
    coeffs = np.zeros((2, 1, 2 * n, 2 * n))
    coeffs[1, 0] = c * np.eye(2 * n)
    return BoundaryValueFamily(wall, wall, SymmetricFamily(coeffs))


def test_spectrum_window_double_eigenvalue_in_last_scan_interval():
    # Dirichlet walls, S = 0: mu = k pi with multiplicity n; pi lies 0.05
    # inside the edge, within the last scan interval, and gives no sign change
    window = spectrum_window(_walls(2, 0.0), 0.0, -1.0, np.pi + 0.05)
    assert_spectrum_matches(window, [(0.0, 2), (np.pi, 2)], tol=1e-6)


def test_spectrum_window_double_eigenvalue_near_edge_expm_branch():
    # walls with S = 5 lambda I: mu = k pi + 5 lambda, multiplicity 2;
    # 5 + 2 pi = 11.283 lies 0.017 inside the edge 11.3
    window = spectrum_window(_walls(2, 5.0), 1.0, -11.3, 11.3)
    expected = [(5.0 + k * np.pi, 2) for k in range(-5, 3)]
    assert_spectrum_matches(window, expected, tol=1e-6)
    assert abs(window.eigenvalues[-1][0] - (5.0 + 2.0 * np.pi)) < 1e-6


def test_double_eigenvalues_polished_to_absolute_tolerance():
    # double eigenvalues k pi (+ 5 lambda) give the determinant no sign change;
    # the eigenphase count steps by 2 across them and keeps them bracketed
    # while secant steps on the square root of |det|, signed by that count,
    # narrow each to an absolute width tol; both walls families are exact
    # here (S = 0 in closed form, S = 5 lambda I through expm), so the error
    # left is the locator's alone
    n = 2
    window = spectrum_window(_walls(n, 0.0), 0.0, -7.3, 7.3)
    assert [m for _, m in window.eigenvalues] == [2] * 5
    for mu, k in zip(window.values()[::2], range(-2, 3)):
        assert abs(mu - k * np.pi) <= 1e-10
    fam = _walls(n, 5.0)
    for lam in np.linspace(0.0, 1.0, 21):
        window = spectrum_window(fam, float(lam), -11.3, 11.3)
        assert window.eigenvalues and all(m == 2 for _, m in window.eigenvalues)
        for mu, _ in window.eigenvalues:
            k = np.round((mu - 5.0 * lam) / np.pi)
            assert abs(mu - 5.0 * lam - k * np.pi) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalues_of_every_multiplicity_take_secant_steps(n, monkeypatch):
    # near an n-fold eigenvalue det ~ c (mu - mu*)^n, so the n-th root of |det|,
    # signed by the count, is linear through it and the secant lands on it:
    # a window costs a few detector calls, where halving to tol = 1e-10 takes
    # about 31; with S = 0 and n <= 2 the eigenvalue mu = 0 is a scan point
    # (59 points), so a bracket end has det = 0
    calls = []
    batch = BoundaryValueFamily.detector_batch

    def spy(self, lam, mus):
        calls.append(np.size(mus))
        return batch(self, lam, mus)

    monkeypatch.setattr(BoundaryValueFamily, "detector_batch", spy)
    for c in (0.0, 5.0):
        fam = _walls(n, c)
        for lam in np.linspace(0.0, 1.0, 11):
            calls.clear()
            window = spectrum_window(fam, float(lam), -11.3, 11.3)
            assert len(calls) <= 8, (c, lam, calls)
            expected = [k * np.pi + c * lam for k in range(-8, 9) if abs(k * np.pi + c * lam) < 11.3]
            assert [m for _, m in window.eigenvalues] == [n] * len(expected)
            for (mu, _), want in zip(window.eigenvalues, expected):
                assert abs(mu - want) <= 1e-10, (c, lam, mu)


def test_kernel_dimension_matches_intersection():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = 1 + int(rng.integers(0, 2))
        g1, g2 = random_pair(rng, n)
        fam = BoundaryValueFamily(g1, g2)
        for lam in (0.0, 0.31, 0.77):
            w = spectrum_window(fam, lam, -0.4, 0.4)
            mult = sum(m for mu, m in w.eigenvalues if abs(mu) < 1e-8)
            assert mult == intersection_dimension(g1.frame(lam), g2.frame(lam))


def test_spectral_flow_reference_pairs():
    assert spectral_flow(BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))).value == 1
    assert spectral_flow(BoundaryValueFamily(ConstantPath(l0_frame(1)), gamma_nor_prime(1))).value == -1
    assert spectral_flow(BoundaryValueFamily(ConstantPath(l0_frame(2)), ConstantPath(l1_frame(2)))).value == 0


def test_spectral_flow_partition_independence():
    fam = BoundaryValueFamily(gamma_nor(2), ConstantPath(l1_frame(2)))
    coarse = spectral_flow(fam, base_grid=np.linspace(0, 1, 9))
    fine = spectral_flow(fam, base_grid=np.linspace(0, 1, 17))
    assert coarse.value == fine.value == 1
    assert coarse.partition[0] == 0.0 and coarse.partition[-1] == 1.0
    assert all(e > 0 for e in coarse.epsilons)


@pytest.mark.parametrize("g1, g2", [
    (gamma_nor(1), ConstantPath(l1_frame(1))),
    (ConstantPath(l0_frame(1)), gamma_nor_prime(1)),
])
def test_spectral_flow_partition_does_not_depend_on_rounding(g1, g2):
    # on these pairs a subinterval has margin equal to motion (pi/16) exactly,
    # so without a slack eigenvalue errors of 1e-11 decide its refinement
    fam = BoundaryValueFamily(g1, g2)
    coarse = spectral_flow(fam, tol=1e-8)
    fine = spectral_flow(fam, tol=1e-10)
    assert coarse.partition == fine.partition
    assert coarse.epsilons == pytest.approx(fine.epsilons, abs=1e-7)


def test_spectral_flow_shifted_reference():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    base = spectral_flow(fam).value
    assert spectral_flow_shifted(fam, 0.0) == base
    assert spectral_flow_shifted(fam, 0.1) == 1
    for delta in (0.01, 0.001):
        assert spectral_flow_shifted(fam, delta) == base


def test_spectral_flow_shifted_too_large():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(ValueError, match="too large"):
        spectral_flow_shifted(fam, 0.5)


def test_spectrum_shift_law():
    # sigma(A + delta) = sigma(A) + delta, with A + delta I built as the
    # operator with S + delta I: S = 0 (closed form against the expm branch),
    # t-independent S (expm on both sides) and t-dependent S (RK4 shooting)
    t_const = SymmetricFamily(np.array([[[[0.4, 0.1], [0.1, -0.3]]], [[[0.6, 0.0], [0.0, 0.6]]]]))
    t_dep = SymmetricFamily(
        np.array(
            [
                [[[0.3, 0.1], [0.1, -0.2]], [[0.0, 0.4], [0.4, 0.2]]],
                [[[0.5, 0.0], [0.0, 0.5]], [[-0.3, 0.2], [0.2, 0.1]]],
            ]
        )
    )
    delta = 0.1
    for S in (None, t_const, t_dep):
        fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)), S)
        fam_delta = fam.shifted(delta)
        found = 0
        for lam in (0.0, 0.3, 0.7):
            ((base,),) = _clean_windows((fam,), np.array([lam]), -1.2, 1.2)
            shifted = spectrum_window(fam_delta, lam, base.mu_min + delta, base.mu_max + delta)
            assert shifted.values().shape == base.values().shape
            assert np.allclose(base.values() + delta, shifted.values(), atol=1e-8)
            found += base.values().size
        assert found > 0


def test_conjugation_check_zero_delta():
    rep = conjugation_spectrum_check(gamma_nor(1), ConstantPath(l1_frame(1)), 0.0)
    assert rep.passed and rep.max_spectrum_deviation < 1e-12


def test_conjugation_check_reference():
    rep = conjugation_spectrum_check(gamma_nor(1), ConstantPath(l1_frame(1)), 0.05)
    assert rep.passed
    assert rep.sfl_shifted == rep.sfl_rotated == 1
    assert rep.max_spectrum_deviation < 1e-7


def test_conjugation_check_constant_pair():
    # spectra {pi/2 + k pi} + 0.1 against the rotated boundary condition
    rep = conjugation_spectrum_check(
        ConstantPath(l0_frame(1)), ConstantPath(l1_frame(1)), 0.1
    )
    assert rep.passed
    shifted = np.asarray(rep.detail[0]["shifted"])
    targets = np.array([k * np.pi + np.pi / 2 + 0.1 for k in range(-2, 2)])
    for mu in shifted:
        assert np.min(np.abs(targets - mu)) < 1e-7


def test_conjugation_check_rejects_large_delta():
    with pytest.raises(ValueError, match="pi/4"):
        conjugation_spectrum_check(gamma_nor(1), ConstantPath(l1_frame(1)), 1.0)


def test_gap_diagnostic_reference():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    rep = discretized_gap_diagnostic(fam, 0.0, [0.02, 0.01, 0.005], N=48)
    assert rep.passed
    gaps = [e.graph_gap for e in rep.entries]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert all(e.ratio <= 100 for e in rep.entries)


def test_gap_diagnostic_zero_at_base_point():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    rep = discretized_gap_diagnostic(fam, 0.3, [0.3], N=32)
    assert rep.entries[0].graph_gap < 1e-10


def test_gap_diagnostic_constant_paths_varying_s():
    # boundary projections do not move, so the ratio is uninformative but the
    # graph gap still shrinks with lambda -> lambda0 by continuity in S
    coeffs = np.zeros((2, 2, 2, 2))
    coeffs[1, 1] = np.array([[1.0, 0.3], [0.3, -0.5]])
    fam = BoundaryValueFamily(
        ConstantPath(l0_frame(1)), ConstantPath(l1_frame(1)), SymmetricFamily(coeffs)
    )
    rep = discretized_gap_diagnostic(fam, 0.0, [0.2, 0.1, 0.05], N=32)
    assert all(not e.informative for e in rep.entries)
    gaps = [e.graph_gap for e in rep.entries]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def _graph_matrix_by_blocks(fam, lam, N):
    """The gap diagnostic's graph basis [B; T B] assembled block by block,
    the reference of the one-call assembly."""
    n = fam.n
    dim = 2 * n
    h = 1.0 / (N - 1)
    ts = np.linspace(0.0, 1.0, N)
    J = standard_J(n)
    B = np.zeros((dim * N, dim * (N - 2) + 2 * n))
    B[:dim, :n] = fam.gamma1.frame(lam).F
    for k in range(1, N - 1):
        B[k * dim : (k + 1) * dim, n + (k - 1) * dim : n + k * dim] = np.eye(dim)
    B[(N - 1) * dim :, n + (N - 2) * dim :] = fam.gamma2.frame(lam).F
    T = np.zeros((dim * N, dim * N))
    for k in range(N - 1):
        Sk = fam.S(lam, ts[k]) if fam.S is not None else 0.0
        T[k * dim : (k + 1) * dim, k * dim : (k + 1) * dim] = -J / h + Sk
        T[k * dim : (k + 1) * dim, (k + 1) * dim : (k + 2) * dim] = J / h
    Send = fam.S(lam, ts[-1]) if fam.S is not None else 0.0
    T[(N - 1) * dim :, (N - 2) * dim : (N - 1) * dim] = -J / h
    T[(N - 1) * dim :, (N - 1) * dim :] = J / h + Send
    return np.vstack([B, T @ B])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("potential", [False, True])
def test_graph_matrix_matches_block_assembly(n, potential):
    rng = np.random.default_rng(23 + n)
    g1, g2 = random_pair(rng, n)
    S = random_symmetric_family(rng, n, 2, 1, 1.5) if potential else None
    fam = BoundaryValueFamily(g1, g2, S)
    for N in (32, 48):
        for lam in (0.0, 0.37):
            assert np.array_equal(_graph_matrix(fam, lam, N), _graph_matrix_by_blocks(fam, lam, N))


def test_gap_diagnostic_rejects_small_grid():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(ValueError, match="32"):
        discretized_gap_diagnostic(fam, 0.0, [0.1], N=16)


def test_main_theorem_on_randomized_pairs():
    rng = np.random.default_rng(9)
    for i in range(8):
        n = 1 + i % 2
        g1, g2 = random_pair(rng, n, force_nonadmissible=(i % 4 == 3))
        assert spectral_flow(BoundaryValueFamily(g1, g2)).value == maslov_pair(g1, g2)


def test_transfer_symplecticity_with_family():
    rng = np.random.default_rng(10)
    S = random_symmetric_family(rng, 1, 2, 2, 2.0)
    fam = BoundaryValueFamily(ConstantPath(l0_frame(1)), ConstantPath(l1_frame(1)), S)
    J = standard_J(1)
    for lam, mu in ((0.2, 0.6), (0.8, -1.1)):
        Phi = fam.transfer(lam, mu)
        assert np.linalg.norm(Phi.T @ J @ Phi - J, 2) < 1e-8


def _families(n: int):
    """S = 0, t-independent S and t-dependent S on one random pair, then
    the walls with S = 5 lambda I, whose eigenvalues have multiplicity n."""
    rng = np.random.default_rng(60 + n)
    g1, g2 = random_pair(rng, n)
    t_const = SymmetricFamily(rng.normal(size=(3, 1, 2 * n, 2 * n)) * 0.5)
    families = [BoundaryValueFamily(g1, g2, S) for S in (None, t_const, _t_dependent_family(n, seed=n))]
    return families + [_walls(n, 5.0)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", [0, 1, 2, 3], ids=["zero", "t-independent", "t-dependent", "walls"])
def test_stacked_windows_equal_one_at_a_time(n, kind):
    # a stack shares every detector call, yet each window is located exactly
    # as alone, edges given per lambda included
    lams = np.linspace(0.0, 1.0, 7)
    lo, hi = -1.45 - 0.01 * np.arange(7), 1.45
    stacked = spectrum_window(_families(n)[kind], lams, lo, hi)
    alone = _families(n)[kind]
    assert isinstance(stacked, tuple) and len(stacked) == 7
    found = 0
    for lam, a, window in zip(lams, lo, stacked):
        one = spectrum_window(alone, float(lam), float(a), hi)
        assert window.eigenvalues == one.eigenvalues
        assert (window.lam, window.mu_min, window.mu_max) == (one.lam, one.mu_min, one.mu_max)
        found += len(one.eigenvalues)
    assert found > 0


def test_clean_windows_widens_only_the_window_whose_edge_failed():
    # gamma_nor(1) against l1: at lambda = 0 the edge -pi/2 is an eigenvalue,
    # at 0.3 and 0.6 neither edge is
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    lams = np.array([0.3, 0.0, 0.6])
    with pytest.raises(EigenvalueAtWindowEdge, match=r"lambda=0;") as err:
        spectrum_window(fam, lams, -np.pi / 2, 1.0)
    assert err.value.windows == (1,)
    (windows,) = _clean_windows((fam,), lams, -np.pi / 2, 1.0)
    assert [w.mu_min for w in windows] == [-np.pi / 2, -np.pi / 2 - 0.0137, -np.pi / 2]
    assert [w.mu_max for w in windows] == [1.0, 1.0 + 0.0137, 1.0]
    for lam, window in zip(lams, windows):
        ((alone,),) = _clean_windows((fam,), np.array([lam]), -np.pi / 2, 1.0)
        assert window.eigenvalues == alone.eigenvalues


def test_spectral_flow_locates_each_level_in_one_detector_stream(monkeypatch):
    # level by level: fewer detector calls than windows, and the same
    # (lambda, mu) probes, with multiplicity, as one window per lambda
    probes = []
    batch = BoundaryValueFamily.detector_batch

    def spy(self, lam, mus):
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        probes.append(list(zip(np.broadcast_to(lam, mus.shape).tolist(), mus.tolist())))
        return batch(self, lam, mus)

    monkeypatch.setattr(BoundaryValueFamily, "detector_batch", spy)
    rng = np.random.default_rng(12)
    g1, g2 = random_pair(rng, 2)
    S = random_symmetric_family(rng, 2, 2, 2, 1.5)
    result = spectral_flow(BoundaryValueFamily(g1, g2, S))
    stacked = [p for call in probes for p in call]
    lams = sorted({lam for lam, _ in stacked})
    assert len(probes) < len(lams)
    assert set(result.partition) <= set(lams)

    probes.clear()
    fam = BoundaryValueFamily(g1, g2, S)
    for lam in lams:
        _clean_windows((fam,), np.array([lam]), -1.45, 1.45)
    alone = [p for call in probes for p in call]
    assert len(probes) > len(lams)
    assert Counter(stacked) == Counter(alone)


def test_long_lambda_grids_are_located_in_bounded_stacks(monkeypatch):
    # the family builds the slices of at most _STACK lambdas at once, however
    # long the grid, and every window still equals its one-at-a-time call
    sizes = []
    build = BoundaryValueFamily._build

    def spy(self, lams):
        sizes.append(len(lams))
        return build(self, lams)

    monkeypatch.setattr(BoundaryValueFamily, "_build", spy)
    lams = np.linspace(0.0, 1.0, 2 * _STACK + 3)
    stacked = spectrum_window(_families(1)[2], lams, -1.45, 1.45)
    assert sizes == [_STACK, _STACK, 3]
    alone = _families(1)[2]
    assert [w.eigenvalues for w in stacked] == [
        spectrum_window(alone, float(lam), -1.45, 1.45).eigenvalues for lam in lams
    ]


def test_t_dependent_spectral_flow_builds_one_coefficient_table(monkeypatch):
    # every lambda's RK4 coefficients come from one table per family, so a
    # finer partition evaluates S no more often than a coarse one
    builds, evals = [], []
    table = specflow.rk4_step_coefficients
    monkeypatch.setattr(specflow, "rk4_step_coefficients", lambda *args: builds.append(1) or table(*args))
    call = SymmetricFamily.__call__
    monkeypatch.setattr(SymmetricFamily, "__call__", lambda self, *args: evals.append(1) or call(self, *args))
    rng = np.random.default_rng(12)
    g1, g2 = random_pair(rng, 2)
    coeffs = random_symmetric_family(rng, 2, 2, 2, 1.5).coeffs
    seen = []
    for grid in (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 33)):
        builds.clear()
        evals.clear()
        S = SymmetricFamily(coeffs)
        result = spectral_flow(BoundaryValueFamily(g1, g2, S), base_grid=grid)
        assert len(builds) == 1 and specflow._table[0] is S
        seen.append((len(evals), len(result.partition)))
    assert seen[0][0] == seen[1][0] and seen[0][1] < seen[1][1]


def test_edge_eigenvalues_are_listed_across_stacks():
    # gamma_nor(1) against l1 has -pi/2 in its spectrum at lambda = 0 and 1,
    # the first and the last window, in the first and the last stack
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    lams = np.linspace(0.0, 1.0, 2 * _STACK + 3)
    with pytest.raises(EigenvalueAtWindowEdge, match=r"lambda=0;") as err:
        spectrum_window(fam, lams, -np.pi / 2, 1.0)
    assert err.value.windows == (0, lams.size - 1)


@pytest.mark.parametrize(
    "base_grid, max_depth, where",
    [
        (None, 0, r"\[0\.3125, 0\.375\]"),
        ([0.0, 0.5, 1.0], 0, r"\[0, 0\.5\]"),
        ([0.0, 0.5, 1.0], 2, r"\[0\.125, 0\.25\]"),
    ],
)
def test_spectral_flow_depth_cap_names_the_leftmost_open_segment(base_grid, max_depth, where):
    # the branch pi lambda - pi/2 of gamma_nor(1) against l1 needs refinement
    # on the default grid near lambda = 1/3 only, and on the halves of [0, 1]
    # for several levels; of the segments still open at the cap, the error
    # names the leftmost, the one a depth-first refinement meets first
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(RuntimeError, match="failed to separate eigenvalue branches on " + where):
        spectral_flow(fam, base_grid=base_grid, max_depth=max_depth)
    assert spectral_flow(fam, base_grid=base_grid, max_depth=4).value == 1


@pytest.mark.parametrize(
    "kwargs, match",
    [({"max_depth": -1}, "max_depth must be nonnegative"), ({"base_grid": []}, "base grid must start at 0")],
    ids=["negative-depth", "empty-grid"],
)
def test_spectral_flow_rejects_a_negative_depth_and_an_empty_grid(kwargs, match):
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(ValueError, match=match):
        spectral_flow(fam, **kwargs)


def test_spectrum_window_rejects_a_lambda_array_of_two_dimensions():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(ValueError, match="1-D"):
        spectrum_window(fam, [[0.1, 0.2], [0.3, 0.4]], -1.4, 1.4)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda fam: spectrum_window(fam, np.nan, -1.0, 1.0), "lam must be finite"),
        (lambda fam: spectrum_window(fam, [0.2, np.inf], -1.0, 1.0), "lam must be finite"),
        (lambda fam: spectrum_window(fam, 0.3, -np.inf, 1.0), "mu_min must be finite"),
        (lambda fam: spectrum_window(fam, 0.3, -1.0, np.nan), "mu_max must be finite"),
        (lambda fam: spectrum_window(fam, [0.2, 0.3], [-1.0, np.nan], 1.0), "mu_min must be finite"),
        (lambda fam: spectral_flow(fam, base_grid=[0.0, np.nan, 1.0]), "base_grid must be finite"),
        (lambda fam: spectral_flow(fam, base_grid=[[0.0, 1.0]]), "base_grid must be a scalar or a 1-D"),
        (lambda fam: fundamental_solution(fam.S, np.zeros((2, 2)), 64), "lam must be a scalar or a 1-D"),
        (lambda fam: fundamental_solution(fam.S, np.zeros((2, 3)), 64), "lam must be a scalar or a 1-D"),
        (lambda fam: fundamental_solution(fam.S, [0.5, np.nan], 64), "lam must be finite"),
    ],
    ids=["nan-lam", "inf-in-lams", "inf-mu-min", "nan-mu-max", "nan-in-edges", "nan-in-base-grid",
         "2-d-base-grid", "2x2-lams", "2x3-lams", "nan-in-solution-lams"],
)
def test_public_calls_reject_a_non_finite_or_misshaped_lambda_or_window_edge(call, match):
    S = SymmetricFamily.constant(0.3 * np.eye(2))
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)), S)
    with pytest.raises(ValueError, match=match):
        call(fam)


# (seed, n, k, Maslov index) of random pairs at S = 0 whose eigenvalue
# branches are dense enough to fool the spectral flow's motion test
_DENSE_BRANCH_DRAWS = [(2006, 6, 3, -2), (2007, 7, 12, -1), (2003, 3, 9, 3), (106, 6, 2, -8)]


def _kth_random_pair(seed, n, k):
    rng = np.random.default_rng(seed)
    return [random_pair(rng, n) for _ in range(k + 1)][k]


@pytest.mark.parametrize("seed, n, k, expected", _DENSE_BRANCH_DRAWS)
def test_dense_branch_pairs_have_the_known_maslov_index(seed, n, k, expected):
    assert maslov_pair(*_kth_random_pair(seed, n, k)) == expected


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, RuntimeError),
    reason="with four or more eigenvalues in the core window, neighbours at the other end of a "
    "segment hide a branch crossing epsilon from the motion test",
)
@pytest.mark.parametrize("seed, n, k", [draw[:3] for draw in _DENSE_BRANCH_DRAWS])
def test_spectral_flow_equals_maslov_index_on_dense_branches(seed, n, k):
    g1, g2 = _kth_random_pair(seed, n, k)
    assert spectral_flow(BoundaryValueFamily(g1, g2)).value == maslov_pair(g1, g2)


def test_family_on_a_lambda_array_is_bitwise_per_lambda():
    rng = np.random.default_rng(31)
    lams = np.concatenate([np.linspace(0.0, 1.0, 5), rng.uniform(size=4)])
    for i in range(12):
        n = 1 + i % 2
        S = random_symmetric_family(rng, n, 1 + i % 4, 1 + i % 3, 0.5 + 0.3 * i)
        for t in (0.0, 0.37, np.linspace(0.0, 1.0, 33), np.array([[0.1, 0.2], [0.3, 0.4]])):
            got = S(lams, t)
            assert got.shape == (lams.size,) + np.shape(t) + (2 * n, 2 * n)
            assert np.array_equal(got, np.stack([S(lam, t) for lam in lams]))
            # symmetric bit for bit, which BoundaryValueFamily takes on trust
            assert np.array_equal(got, np.swapaxes(got, -1, -2))
            # against the explicit sum of c[j, k] lambda^j t^k
            C, tt = S.coeffs, np.asarray(t)[..., None, None]
            ref = np.stack(
                [sum(C[j, k] * lam**j * tt**k for j in range(C.shape[0]) for k in range(C.shape[1])) for lam in lams]
            )
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_sup_norm_is_the_largest_norm_of_the_grid_matrices():
    rng = np.random.default_rng(32)
    grid = np.linspace(0.0, 1.0, 17)
    for i in range(8):
        n = 1 + i % 2
        S = random_symmetric_family(rng, n, 1 + i % 3, 1 + i % 4 // 2, 0.5 + 0.4 * i)
        expected = max(np.linalg.norm(M, 2) for lam in grid for M in S(float(lam), grid))
        assert S.sup_norm() == expected
