"""Tests for shooting spectra, spectral flow and the gap diagnostics.

The closed-form spectra of the two reference boundary families are the main
oracles: the branch through zero has multiplicity one and slope +-pi, the
stationary branches at pi/2 + k pi have multiplicity n - 1, and the families
merge at the endpoints.
"""

import numpy as np
import pytest

from maslovflow import (
    BoundaryValueFamily,
    ConstantPath,
    EigenvalueAtWindowEdge,
    SymmetricFamily,
    conjugation_spectrum_check,
    discretized_gap_diagnostic,
    eigen_detector,
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
    transfer_matrix,
)
from maslovflow.specflow import _clean_windows
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
    for mu in (0.0, 0.3, -1.2, np.pi / 2):
        Phi = transfer_matrix(None, n, mu)
        assert np.allclose(Phi, np.cos(mu) * np.eye(2 * n) - np.sin(mu) * J, atol=1e-15)
    assert np.allclose(transfer_matrix(None, n, 0.0), np.eye(2 * n), atol=1e-15)


def test_transfer_matrix_symplectic_and_converged():
    # oracle: step-halving; the coefficient is J-Hamiltonian so Phi must be
    # symplectic up to integration error
    n = 1
    J = standard_J(n)

    def S_of_t(t):
        a = 0.4 + 0.3 * t
        b = -0.2 * t * t
        return np.array([[a, b], [b, -0.1 + 0.5 * t]])

    Phi1 = transfer_matrix(S_of_t, n, 0.7, steps=128)
    Phi2 = transfer_matrix(S_of_t, n, 0.7, steps=256)
    assert np.linalg.norm(Phi1 - Phi2, 2) < 1e-9
    assert np.linalg.norm(Phi2.T @ J @ Phi2 - J, 2) < 1e-8


def test_transfer_matrix_rejects_few_steps():
    with pytest.raises(ValueError, match="steps"):
        transfer_matrix(None, 1, 0.0, steps=8)


def test_eigen_detector_reference_values():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    assert eigen_detector(fam, 0.0, np.pi / 2) < 1e-9
    assert eigen_detector(fam, 0.0, 0.0) > 0.1


def test_eigen_detector_transversal_constant_pair():
    fam = BoundaryValueFamily(ConstantPath(l0_frame(2)), ConstantPath(l1_frame(2)))
    assert eigen_detector(fam, 0.37, 0.0) > 0.1


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


@pytest.mark.parametrize("kind,n", [("nor", 1), ("nor", 2), ("nor", 3), ("prime", 1), ("prime", 2)])
def test_spectrum_window_closed_form_families(kind, n):
    if kind == "nor":
        fam = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)))
    else:
        fam = BoundaryValueFamily(ConstantPath(l0_frame(n)), gamma_nor_prime(n))
    lo, hi = -np.pi + 0.1, np.pi - 0.1
    for lam in (0.0, 0.3, 0.5, 0.8, 1.0):
        assert_spectrum_matches(
            spectrum_window(fam, lam, lo, hi), reference_spectrum(kind, n, lam, lo, hi)
        )


def test_spectrum_window_endpoint_collision():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(EigenvalueAtWindowEdge, match="shift the window"):
        spectrum_window(fam, 0.0, -np.pi / 2, 1.0)


def test_spectrum_window_double_eigenvalue_in_last_scan_interval():
    # Dirichlet walls, S = 0: mu = k pi with multiplicity n; pi lies 0.05
    # inside the edge, within the last scan interval, and gives no sign change
    n = 2
    wall = ConstantPath(l1_frame(n))
    window = spectrum_window(BoundaryValueFamily(wall, wall), 0.0, -1.0, np.pi + 0.05)
    assert_spectrum_matches(window, [(0.0, 2), (np.pi, 2)], tol=1e-6)


def test_spectrum_window_double_eigenvalue_near_edge_expm_branch():
    # walls with S = 5 lambda I: mu = k pi + 5 lambda, multiplicity 2;
    # 5 + 2 pi = 11.283 lies 0.017 inside the edge 11.3
    n = 2
    wall = ConstantPath(l1_frame(n))
    coeffs = np.zeros((2, 1, 2 * n, 2 * n))
    coeffs[1, 0] = 5.0 * np.eye(2 * n)
    fam = BoundaryValueFamily(wall, wall, SymmetricFamily(coeffs))
    window = spectrum_window(fam, 1.0, -11.3, 11.3)
    expected = [(5.0 + k * np.pi, 2) for k in range(-5, 3)]
    assert_spectrum_matches(window, expected, tol=1e-6)
    assert abs(window.eigenvalues[-1][0] - (5.0 + 2.0 * np.pi)) < 1e-6


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
    coarse = spectral_flow(fam, base_grid=np.linspace(0, 1, 9), check=False)
    fine = spectral_flow(fam, base_grid=np.linspace(0, 1, 17), check=False)
    assert coarse.value == fine.value == 1
    assert coarse.partition[0] == 0.0 and coarse.partition[-1] == 1.0
    assert all(e > 0 for e in coarse.epsilons)


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
            (base,) = _clean_windows((fam,), lam, -1.2, 1.2)
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
