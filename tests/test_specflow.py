"""Tests for shooting spectra, spectral flow and the gap diagnostics.

The closed-form spectra of the two reference boundary families are the main
oracles: the branch through zero has multiplicity one and slope +-pi, the
stationary branches at pi/2 + k pi have multiplicity n - 1, and the families
merge at the endpoints.
"""

import gc
import time
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from maslovflow import (
    BoundaryValueFamily,
    ConstantPath,
    EigenvalueCountMismatch,
    LagrangianFrame,
    NonFiniteTransfer,
    PiecewiseLinear,
    RotatedPath,
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
from maslovflow import paths, specflow, symplectic
from maslovflow.specflow import _STACK, _graph_matrix
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


def _detector_families(seed: int):
    """(n, kind, family) at n = 1-3 with S zero, t-independent and t-dependent."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        for kind, deg_t in (("zero", None), ("t-independent", 0), ("t-dependent", 2)):
            g1, g2 = random_pair(rng, n)
            S = None if deg_t is None else random_symmetric_family(rng, n, 2, deg_t, 2.0)
            yield n, kind, BoundaryValueFamily(g1, g2, S, steps=64)


def _souriau(F):
    n = F.shape[1]
    U = F[:n] + 1j * F[n:]
    return U @ U.T


def _hyperbolic_family(n: int, seed: int | None = None) -> BoundaryValueFamily:
    """S = [[0, M], [M, 0]] with M = diag(-10, 10)[:n], of sup norm 10: at
    mu = 0, x_0 grows as e^10 and x_1 shrinks as e^-10, and gamma_1 spans
    R^n x {0} by columns at 45 degrees, so for n = 2 the columns of Phi(1) F1
    are nearly parallel (condition number near e^20 = 4.9e8 at mu = 0).
    With a seed, S and gamma_1 are turned by a random orthogonal symplectic
    matrix, so that rounding no longer keeps to the coordinate planes."""
    S = np.zeros((2 * n, 2 * n))
    S[:n, n:] = S[n:, :n] = np.diag([-10.0, 10.0][:n])
    F1 = np.vstack([np.eye(n), np.zeros((n, n))])
    if n == 2:
        F1[:2] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    rng = np.random.default_rng(40 + n if seed is None else seed)
    if seed is not None:
        Z = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        U = np.block([[Z.real, -Z.imag], [Z.imag, Z.real]])
        S, F1 = U @ S @ U.T, U @ F1
    gamma2 = random_pair(rng, n)[1]
    return BoundaryValueFamily(ConstantPath(LagrangianFrame(n, F1)), gamma2, SymmetricFamily.constant(S))


def _closed_form_cases():
    """(label, family, lambda, mus) at n = 1 and 2 on which the closed-form
    detector could lose accuracy: double eigenphases, an eigenphase within
    1e-12 of 0, and Phi(1) F1 of condition number at least 1e6."""
    # S = 5 lambda I between {0} x R^2 at both ends: Phi(1) = exp((5 lambda -
    # mu) J), so C is a multiple of I and both eigenphases are equal at every mu
    mus = np.concatenate([np.linspace(-11.3, 11.3, 41), 2.5 + np.pi * np.arange(-3, 4) + 1e-13])
    yield "walls", _walls(2, 5.0), 0.5, mus
    # the same between one random Lagrangian at both ends, where rounding
    # leaves V^T V a multiple of I only to eps
    ends = ConstantPath(random_pair(np.random.default_rng(39), 2)[0].frame(0.0))
    yield "walls-turned", BoundaryValueFamily(ends, ends, _walls(2, 5.0).S), 0.5, mus
    for n in (1, 2):
        # S = 0 on R^n x {0} at both ends: eigenvalues k pi, eigenphases -2 mu
        horizontal = ConstantPath(l0_frame(n))
        yield f"near-zero-{n}", BoundaryValueFamily(horizontal, horizontal), 0.3, np.array(
            [1e-13, -3e-13, np.pi + 2e-13, -np.pi - 4e-13])
        yield f"hyperbolic-{n}", _hyperbolic_family(n), 0.3, np.concatenate(
            [np.linspace(-0.5, 0.5, 21), [-9.0, 4.0, 12.0]])


def test_detector_matches_the_polar_factor_formulas():
    # oracle: the SVD polar factor P of Phi F1, with dets = det(P^T J F2) and
    # the phase sum that of W(P) conj(W(F2)), eigenphases wrapped to [0, 2pi);
    # the double eigenphases of the walls and the ill-conditioned Phi(1) F1 of
    # the hyperbolic families are taken too
    cases = [(f"{kind}-{n}", fam, 0.41, np.random.default_rng(n).uniform(-10.0, 10.0, size=12))
             for n, kind, fam in _detector_families(21)]
    cases += [case for case in _closed_form_cases() if not case[0].startswith("near-zero")]
    for label, fam, lam, mus in cases:
        _, dets, sums = fam.detector_batch(lam, mus)
        F1, F2 = fam.gamma1.frame(lam).F, fam.gamma2.frame(lam).F
        J = standard_J(fam.n)
        for mu, det, phase_sum in zip(mus, dets, sums):
            U, _, Vt = np.linalg.svd(fam.transfer(lam, mu) @ F1, full_matrices=False)
            P = U @ Vt
            C = _souriau(P) @ _souriau(F2).conj()
            expected = np.sum(np.angle(np.linalg.eigvals(C)) % (2.0 * np.pi))
            assert abs(det - np.linalg.det(P.T @ J @ F2)) <= 1e-13, (label, mu)
            assert abs(phase_sum - expected) <= 1e-13, (label, mu)


def test_closed_form_detector_matches_the_lapack_tail(monkeypatch):
    # oracle: the LAPACK QR, det and eigenproblem per mu that n >= 3 takes,
    # on the same Phi(1) F1; phase sums compared modulo 2pi, since an
    # eigenphase within rounding of 0 may wrap to either end of [0, 2pi)
    cases = [(f"{kind}-{n}", fam, 0.41, np.random.default_rng(n).uniform(-10.0, 10.0, size=12))
             for n, kind, fam in _detector_families(21) if n <= 2]
    for label, fam, lam, mus in cases + list(_closed_form_cases()):
        g, dets, sums = fam.detector_batch(lam, mus)
        with monkeypatch.context() as patch:
            patch.setattr(specflow, "_closed_form_tail", specflow._lapack_tail)
            g_ref, dets_ref, sums_ref = fam.detector_batch(lam, mus)
        F1, F2 = fam.gamma1.frame(lam).F, fam.gamma2.frame(lam).F
        if label.startswith("walls"):  # each case is what it claims to be
            for mu in mus:
                P = np.linalg.qr(fam.transfer(lam, mu) @ F1)[0]
                phases = np.angle(np.linalg.eigvals(_souriau(P) @ _souriau(F2).conj()))
                assert abs(np.angle(np.exp(1j * (phases[0] - phases[1])))) <= 1e-12
        elif label.startswith("near-zero"):
            assert np.all(g_ref <= 1e-12)
        elif label.startswith("hyperbolic"):
            assert fam.S.sup_norm() == 10.0
            assert fam.n == 1 or np.linalg.cond(fam.transfer(lam, 0.0) @ F1) >= 1e6
        assert np.max(np.abs(g - g_ref)) <= 1e-13, label
        assert np.max(np.abs(dets - dets_ref)) <= 1e-13, label
        assert np.max(np.abs((sums - sums_ref + np.pi) % (2.0 * np.pi) - np.pi)) <= 1e-13, label


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_closed_form_detector_on_an_ill_conditioned_frame_in_general_position(seed):
    # the hyperbolic family turned off the coordinate planes: Phi(1) F1 has
    # condition number kappa near 4.9e8, its column span moves by eps kappa
    # under rounding, and the closed form stays within 8 eps kappa of the
    # LAPACK tail, as two backward-stable factorizations must; its Q stays
    # orthonormal, so every eigenvalue of V^T V has modulus 1 to rounding
    # (one Gram-Schmidt pass leaves them off by up to 3e-8 here)
    fam = _hyperbolic_family(2, seed)
    mus = np.linspace(-0.5, 0.5, 21)
    sl, at = fam._slices(np.full(mus.shape, 0.3))
    B = fam._transfer_at(sl, at, mus) @ sl.F1[at]
    kappa = np.linalg.cond(B)
    assert kappa.max() >= 1e8
    dets, eigs = specflow._closed_form_tail(B, sl.F2J, at)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) <= 1e-14
    ref_dets, ref_eigs = specflow._lapack_tail(B, sl.F2J, at)
    bound = 8.0 * np.finfo(float).eps * kappa
    assert np.all(np.abs(dets - ref_dets) <= bound)
    sums = np.sum(np.angle(eigs), axis=0)
    ref_sums = np.sum(np.angle(ref_eigs), axis=0)
    assert np.all(np.abs((sums - ref_sums + np.pi) % (2.0 * np.pi) - np.pi) <= bound)


def test_closed_form_detector_does_not_see_a_power_of_two_scale(monkeypatch):
    # each mu's Phi(1) F1 is scaled by a power of two before its norms are
    # squared: a growth far beyond 1e154 gives the same bits as none, and
    # the t-independent S = [[0, -400], [-400, 0]], whose Phi(1) F1 from
    # R x {0} reaches e^400 = 5e173, gives what the LAPACK tail gives
    for n in (1, 2):
        rng = np.random.default_rng(70 + n)
        g1, g2 = random_pair(rng, n)
        fam = BoundaryValueFamily(g1, g2, random_symmetric_family(rng, n, 2, 1, 1.5), steps=64)
        mus = rng.uniform(-6.0, 6.0, size=9)
        sl, at = fam._slices(np.full(mus.shape, 0.6))
        B = fam._transfer_at(sl, at, mus) @ sl.F1[at]
        want = specflow._closed_form_tail(B, sl.F2J, at)
        for scale in (2.0**600, 2.0**-600, 2.0 ** np.arange(-540, 540, 120)[:, None, None]):
            got = specflow._closed_form_tail(B * scale, sl.F2J, at)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    S = SymmetricFamily.constant([[0.0, -400.0], [-400.0, 0.0]])
    fam = BoundaryValueFamily(ConstantPath(l0_frame(1)), gamma_nor(1), S)
    mus = np.linspace(-3.0, 3.0, 13)
    assert np.abs(fam.transfer(0.5, 0.0) @ l0_frame(1).F).max() > 1e173
    got = fam.detector_batch(0.5, mus)
    monkeypatch.setattr(specflow, "_closed_form_tail", specflow._lapack_tail)
    want = fam.detector_batch(0.5, mus)
    assert all(np.max(np.abs(a - b)) <= 1e-13 for a, b in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_detector_phase_sum_turns_at_rate_2n_for_the_zero_family(n):
    # S = 0 and constant paths: Phi = exp(-mu J) multiplies W by e^{-2i mu},
    # so sums(mu) = sums(0) - 2 n mu modulo 2pi
    rng = np.random.default_rng(30 + n)
    g1, g2 = random_pair(rng, n)
    fam = BoundaryValueFamily(ConstantPath(g1.frame(0.0)), ConstantPath(g2.frame(0.0)))
    mus = np.linspace(-12.0, 12.0, 97)
    sums = fam.detector_batch(0.5, mus)[2]
    sum0 = fam.detector_batch(0.5, [0.0])[2][0]
    drift = (sums - sum0 + 2.0 * n * mus) / (2.0 * np.pi)
    assert np.max(np.abs(drift - np.round(drift))) * 2.0 * np.pi <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_overflowing_transfer_raises_before_any_count(n):
    # S = 1e155 I + t I overflows the RK4 steps at 64 steps: the detector
    # names lambda and the first mu at once, on the closed-form path (n <= 2)
    # and the LAPACK one (n = 3), where counting NaN eigenphases would halve
    # every scan interval without end
    coeffs = np.zeros((1, 2, 2 * n, 2 * n))
    coeffs[0, 0], coeffs[0, 1] = 1e155 * np.eye(2 * n), np.eye(2 * n)
    S = SymmetricFamily(coeffs)
    fam = BoundaryValueFamily(ConstantPath(l0_frame(n)), ConstantPath(l1_frame(n)), S, steps=64)
    assert issubclass(NonFiniteTransfer, RuntimeError)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteTransfer, match=r"not finite at lambda=0\.7, mu=0\.25$"):
            fam.detector_batch([0.7, 0.7], [0.25, -0.5])
        t0 = time.perf_counter()
        with pytest.raises(NonFiniteTransfer, match=r"not finite at lambda=0\.3, mu=-1$"):
            spectrum_window(fam, 0.3, -1.0, 1.0)
    assert time.perf_counter() - t0 < 1.0


def test_detector_takes_no_svd_or_souriau_matrix_and_rows_do_not_depend_on_the_batch(monkeypatch):
    # no SVD and no Souriau matrix; for n <= 2 no LAPACK QR, det or
    # eigenproblem either, for n = 3 one of each per batch; and each row is
    # the same bits alone and in any batch
    calls = Counter()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for owner, name in ((np.linalg, "svd"), (scipy.linalg, "svd"), (symplectic, "souriau"),
                        (symplectic, "souriau_stack"), (paths, "souriau"),
                        (np.linalg, "qr"), (np.linalg, "det"), (np.linalg, "eigvals")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    for n, kind, fam in _detector_families(22):
        mus = np.random.default_rng(n).uniform(-10.0, 10.0, size=24)
        lams = np.where(np.arange(24) % 3 == 0, 0.25, 0.8)
        for lam in (0.8, lams):
            fam.detector_batch(lam, mus)  # the slices and path frames first
            calls.clear()
            batch = fam.detector_batch(lam, mus)
            lapack = Counter(qr=1, det=1, eigvals=1) if n == 3 else Counter()
            assert calls == lapack, (n, kind, dict(calls))
            for k, mu in enumerate(mus):
                at = lam if np.ndim(lam) == 0 else lam[k : k + 1]
                row = fam.detector_batch(at, [mu])
                for got, want in zip(row, batch):
                    assert np.array_equal(got[0], want[k]), (n, kind, k)
                if np.ndim(lam) == 0:
                    assert eigen_detector(fam, lam, mu) == batch[0][k]


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
        window = spectrum_window(BoundaryValueFamily(g1, g2), lam, -2.03, 2.11)
        C = souriau(g1.frame(lam).F, n) @ souriau(g2.frame(lam).F, n).conj()
        half = np.angle(np.linalg.eigvals(C)) / 2.0
        expected = np.sort(
            [mu for p in half for mu in p + np.pi * np.arange(-3, 4) if window.mu_min <= mu < window.mu_max]
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


def test_a_window_scan_that_keeps_halving_raises_within_a_second():
    # eigenphase sums that increase with mu make every scan interval fail the
    # count at every level, so the scan would double each level without end;
    # it stops before it holds more than _SCAN_GROWTH times its first points
    class Backwards(BoundaryValueFamily):
        def detector_batch(self, lam, mus):
            g, dets, sums = super().detector_batch(lam, mus)
            batches.append(np.size(mus))
            return g, dets, 2.0 * np.pi - sums

    batches = []
    fam = Backwards(gamma_nor(1), ConstantPath(l1_frame(1)))
    t0 = time.perf_counter()
    with pytest.raises(EigenvalueCountMismatch, match=r"outgrew 64 times .* at lambda=0\.3 on mu in \[-1, 1\]"):
        spectrum_window(fam, 0.3, -1.0, 1.0)
    assert time.perf_counter() - t0 < 1.0
    assert sum(batches) <= specflow._SCAN_GROWTH * batches[0] < sum(batches) + batches[-1] * 2


def test_spectrum_window_endpoint_collision():
    # gamma_nor(1) against l1 has the simple eigenvalue -pi/2 at lambda = 0:
    # a window is [mu_min, mu_max), so it is in the window it starts and not
    # in the one it ends, located within MU_TOL above the edge, and an edge
    # 1e-12 below or above it decides the same way
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    ((mu, mult),) = spectrum_window(fam, 0.0, -np.pi / 2, 1.0).eigenvalues
    assert mult == 1 and -np.pi / 2 <= mu <= -np.pi / 2 + specflow.MU_TOL
    assert spectrum_window(fam, 0.0, -1.0, np.pi / 2).eigenvalues == ()
    ((below, _),) = spectrum_window(fam, 0.0, -np.pi / 2 - 1e-12, 1.0).eigenvalues
    assert abs(below + np.pi / 2) <= specflow.MU_TOL
    assert spectrum_window(fam, 0.0, -np.pi / 2 + 1e-12, 1.0).eigenvalues == ()


def _nor_family():
    return BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))


@pytest.mark.parametrize("call, message", [
    (lambda: spectral_flow_shifted(_nor_family(), np.inf), "delta must be finite, got inf"),
    (lambda: spectral_flow_shifted(_nor_family(), np.nan), "delta must be finite, got nan"),
    (lambda: conjugation_spectrum_check(gamma_nor(1), ConstantPath(l1_frame(1)), np.nan),
     "delta must be finite, got nan"),
    (lambda: SymmetricFamily.zero(1).shifted(-np.inf), "delta must be finite, got -inf"),
], ids=["spectral_flow_shifted-inf", "spectral_flow_shifted-nan",
        "conjugation_spectrum_check-nan", "shifted-inf"])
def test_a_numeric_argument_that_is_not_finite_or_positive_is_rejected_by_name(call, message, monkeypatch):
    # each is rejected before any frame is read or any window is located
    def refuse(*args):
        raise AssertionError("evaluated before the argument was checked")

    monkeypatch.setattr(paths.LagrangianPath, "_frames_at", refuse)
    monkeypatch.setattr(specflow, "_locate", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _nor_pair():
    return gamma_nor(1), ConstantPath(l1_frame(1))


@pytest.mark.parametrize("call, message", [
    # numpy raises a bare TypeError on a float count
    (lambda: BoundaryValueFamily(*_nor_pair(), steps=256.0), "steps must be an integer, got 256.0"),
    (lambda: fundamental_solution(SymmetricFamily.zero(1), 0.5, 256.0), "steps must be an integer, got 256.0"),
], ids=["family-steps-256.0", "fundamental_solution-steps-256.0"])
def test_a_count_that_is_not_an_integer_is_rejected_by_name(call, message, monkeypatch):
    # each is rejected before any frame is read or any window is located
    def refuse(*args):
        raise AssertionError("evaluated before the argument was checked")

    monkeypatch.setattr(paths.LagrangianPath, "_frames_at", refuse)
    monkeypatch.setattr(specflow, "_locate", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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


@pytest.mark.parametrize("turn", [1e-15, -1e-15])
def test_an_eigenvalue_on_a_scan_point_is_counted_above_it(turn, monkeypatch):
    # gamma_nor against l1 has the eigenvalue 0 at lambda = 1/2, a scan point
    # of a window symmetric about 0; its eigenphase there is 0 up to rounding,
    # and a turn of either sign by 1e-15 must not move the window
    tail = specflow._closed_form_tail

    def turned(B, F2J, at):
        dets, eigs = tail(B, F2J, at)
        return dets, np.where(np.abs(np.angle(eigs)) < 1e-13, eigs * np.exp(1j * turn), eigs)

    monkeypatch.setattr(specflow, "_closed_form_tail", turned)
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    tol = 1e-8
    monkeypatch.setattr(specflow, "MU_TOL", tol)
    w = spectrum_window(fam, 0.5, -3.0415926535, 3.0415926535)
    assert w.eigenvalues == ((tol / 4, 1),)


def test_spectral_flow_reference_pairs():
    assert spectral_flow(BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))).value == 1
    assert spectral_flow(BoundaryValueFamily(ConstantPath(l0_frame(1)), gamma_nor_prime(1))).value == -1
    assert spectral_flow(BoundaryValueFamily(ConstantPath(l0_frame(2)), ConstantPath(l1_frame(2)))).value == 0


def _base_grid(monkeypatch, nodes):
    """Make spectral_flow start from the base grid nodes."""
    monkeypatch.setattr(specflow, "_default_base_nodes", lambda fam: np.asarray(nodes, dtype=float))


def test_spectral_flow_partition_independence(monkeypatch):
    fam = BoundaryValueFamily(gamma_nor(2), ConstantPath(l1_frame(2)))
    _base_grid(monkeypatch, np.linspace(0, 1, 9))
    coarse = spectral_flow(fam)
    _base_grid(monkeypatch, np.linspace(0, 1, 17))
    fine = spectral_flow(fam)
    assert coarse.value == fine.value == 1
    assert coarse.partition[0] == 0.0 and coarse.partition[-1] == 1.0
    assert all(e > 0 for e in coarse.epsilons)


@pytest.mark.parametrize("g1, g2", [
    (gamma_nor(1), ConstantPath(l1_frame(1))),
    (ConstantPath(l0_frame(1)), gamma_nor_prime(1)),
])
def test_spectral_flow_partition_does_not_depend_on_rounding(g1, g2, monkeypatch):
    # on these pairs a subinterval has margin equal to motion (pi/16) exactly,
    # so without a slack eigenvalue errors of 1e-11 decide its refinement
    fam = BoundaryValueFamily(g1, g2)
    monkeypatch.setattr(specflow, "MU_TOL", 1e-8)
    coarse = spectral_flow(fam)
    monkeypatch.setattr(specflow, "MU_TOL", 1e-10)
    fine = spectral_flow(fam)
    assert coarse.partition == fine.partition
    assert coarse.epsilons == pytest.approx(fine.epsilons, abs=1e-7)


def _parent_interval_contribution(Ea, Eb):
    """The segment rule before the motion cap and the wall cutoff were
    dropped, verbatim but for the names, as the reference."""
    motion_cap = np.pi / 8

    def choose_epsilon(values_a, values_b, motion):
        pts = np.abs(np.concatenate([values_a, values_b]))
        pts = np.sort(pts[pts <= specflow._EPS_MAX + motion_cap + 0.05])
        walls = np.concatenate([[0.0], pts])
        best = None
        for a, b in zip(walls, np.append(walls[1:], np.inf)):
            lo, hi = max(a, 0.0), min(b, specflow._EPS_MAX)
            if hi <= lo:
                continue
            eps = 0.5 * (lo + hi)
            margin = min(eps - a, b - eps)
            if best is None or margin > best[1]:
                best = (eps, margin)
        if best is None or best[1] <= max(motion + specflow._EPS_SLACK, 1e-3):
            return None
        return best

    A, B = Ea.values(), Eb.values()

    def motion(xs, ys):
        worst = 0.0
        for x in xs:
            if abs(x) > specflow._SF_CORE:
                continue
            if ys.size == 0:
                return np.inf
            worst = max(worst, float(np.min(np.abs(ys - x))))
        return worst

    m = max(motion(A, B), motion(B, A))
    if m > motion_cap:
        return None
    picked = choose_epsilon(A, B, m)
    if picked is None:
        return None
    eps = picked[0]
    zero = specflow._ZERO_TOL
    return Eb.count_between(-zero, eps) - Ea.count_between(-zero, eps), float(eps)


def _segment_windows(count, seed):
    """count pairs of eigenvalue lists for the segment rule, clustered near
    the values where it decides; the second list of a pair is a perturbation
    of the first or drawn afresh, and either may be empty."""
    rng = np.random.default_rng(seed)
    centres = np.array([0.0, np.pi / 8, np.pi / 4, 1.228, 1.45, -1.45])
    scales = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.4])
    shape = (count, 2, 5)
    drawn = rng.choice(centres, shape) * rng.choice([-1.0, 1.0], shape) + rng.choice(scales, shape) * rng.normal(size=shape)
    moved = drawn[:, 0] + rng.choice(scales, (count, 1)) * rng.normal(size=(count, 5))
    sizes = rng.integers(0, 6, (count, 2))
    fresh = rng.random(count) < 0.4
    for i in range(count):
        a = drawn[i, 0, : sizes[i, 0]]
        b = drawn[i, 1, : sizes[i, 1]] if fresh[i] else moved[i, : sizes[i, 0]]
        yield a.tolist(), b.tolist()


def _window(values, doubled):
    """The window of the distinct values, the i-th of multiplicity 2 where
    doubled[i] is set."""
    mus = sorted(set(values))
    return specflow.SpectrumWindow(0.0, -1.45, 1.45, tuple((mu, 1 + int(d)) for mu, d in zip(mus, doubled)))


def test_segment_rule_equals_the_rule_with_the_motion_cap_and_wall_cutoff():
    # the margin is at most pi/8, so neither the cap nor walls past
    # pi/4 + pi/8 can decide: every result, epsilon included, is bit for bit
    cap, cutoff = np.pi / 8, specflow._EPS_MAX + np.pi / 8 + 0.05
    edges = [
        ([], []), ([0.0], [0.0]), ([0.0], []), ([], [0.3]), ([0.0, -0.0], [1e-300]),
        ([0.0], [np.nextafter(cap, 0.0)]), ([0.0], [cap]), ([0.0], [np.nextafter(cap, 1.0)]),
        ([0.0, 0.5], [-np.nextafter(cap, 1.0), 0.5]),
        ([0.2, np.nextafter(cutoff, 2.0)], [0.2, np.nextafter(cutoff, 2.0)]),
        ([0.2, cutoff], [0.2, 1.3]), ([0.7, 1.2281], [0.7, -1.2281]),
        ([0.2], [0.2 + ((np.pi / 4 - 0.2) / 2 - 5e-7) / 1.5]),  # margin 5e-7 above the motion
    ]
    count = 20000
    doubled = np.random.default_rng(2028).random((count, 2, 5)) < 0.1
    accepted = 0
    for i, (a, b) in enumerate(edges + list(_segment_windows(count - len(edges), 2027))):
        Ea, Eb = _window(a, doubled[i, 0]), _window(b, doubled[i, 1])
        want = _parent_interval_contribution(Ea, Eb)
        got = specflow._interval_contribution(Ea, Eb)
        assert got == want, (Ea, Eb, got, want)
        accepted += want is not None
    assert 2000 < accepted < 18000


def test_spectral_flow_shifted_reference():
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    base = spectral_flow(fam).value
    assert spectral_flow_shifted(fam, 0.0) == base
    assert spectral_flow_shifted(fam, 0.1) == 1
    for delta in (0.01, 0.001):
        assert spectral_flow_shifted(fam, delta) == base


def test_spectral_flow_shifted_too_large():
    # the shift property: sf(A + delta) - sf(A) is the count of eigenvalues
    # in [-delta, 0) at lambda = 1 less that at 0.  For gamma_nor(1) against
    # l1 both are 0 at delta = 0.5, so the flow stays 1; a line rotating by
    # one radian against l1 has a branch from -pi/2 to 1 - pi/2 = -0.571, so
    # at delta = 0.6 the counts are 0 and 1, and the shift changes the flow
    nor = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    assert spectral_flow_shifted(nor, 0.5) == spectral_flow(nor.shifted(0.5)).value == 1
    rot = BoundaryValueFamily(RotatedPath(l0_frame(1), PiecewiseLinear.linear(0.0, 1.0)), ConstantPath(l1_frame(1)))
    assert spectral_flow_shifted(rot, 0.5) == spectral_flow(rot).value == 0
    with pytest.raises(ValueError, match=r"too large: A has 0 eigenvalues in \[-delta, 0\) at lambda=0 and 1 at"):
        spectral_flow_shifted(rot, 0.6)
    assert spectral_flow(rot.shifted(0.6)).value == 1


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
            base = spectrum_window(fam, lam, -1.2, 1.2)
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


def test_gap_diagnostic_rejects_an_empty_lambda_list():
    # with no entries both of its all(...) tests would hold vacuously
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    for empty in ([], np.array([])):
        with pytest.raises(ValueError, match="empty"):
            discretized_gap_diagnostic(fam, 0.0, empty)


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
    # as alone
    lams = np.linspace(0.0, 1.0, 7)
    lo, hi = -1.47, 1.45
    stacked = spectrum_window(_families(n)[kind], lams, lo, hi)
    alone = _families(n)[kind]
    assert isinstance(stacked, tuple) and len(stacked) == 7
    found = 0
    for lam, window in zip(lams, stacked):
        one = spectrum_window(alone, float(lam), lo, hi)
        assert window.eigenvalues == one.eigenvalues
        assert (window.lam, window.mu_min, window.mu_max) == (one.lam, one.mu_min, one.mu_max)
        found += len(one.eigenvalues)
    assert found > 0


def test_windows_whose_edges_are_eigenvalues_are_located_stacked_as_alone():
    # gamma_nor(1) against l1 has the eigenvalue pi lambda - pi/2: with the
    # window's edges its values at 0.1 and 0.8, it lies on the lower edge at
    # 0.1, inside the window at 0.5 and on the upper edge at 0.8, and each
    # window of the stack is located as alone
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    lams = np.array([0.1, 0.5, 0.8])
    lo, hi = 0.1 * np.pi - np.pi / 2, 0.8 * np.pi - np.pi / 2
    stacked = spectrum_window(fam, lams, lo, hi)
    assert [len(w.eigenvalues) for w in stacked] == [1, 1, 0]
    assert all((w.mu_min, w.mu_max) == (lo, hi) for w in stacked)
    for lam, window in zip(lams, stacked):
        assert window.eigenvalues == spectrum_window(fam, float(lam), lo, hi).eigenvalues


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
        spectrum_window(fam, lam, -1.45, 1.45)
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
        _base_grid(monkeypatch, grid)
        result = spectral_flow(BoundaryValueFamily(g1, g2, S))
        assert len(builds) == 1 and specflow._table[0]() is S
        seen.append((len(evals), len(result.partition)))
    assert seen[0][0] == seen[1][0] and seen[0][1] < seen[1][1]


def test_coefficient_table_is_released_with_its_family():
    # the table slot holds its family's S weakly: once the family is
    # collected, its table goes with it
    rng = np.random.default_rng(12)
    g1, g2 = random_pair(rng, 2)
    S = random_symmetric_family(rng, 2, 2, 2, 1.5)
    fam = BoundaryValueFamily(g1, g2, S)
    fam.transfer(0.3, 0.5)
    assert specflow._table[0]() is S
    del fam, S
    gc.collect()
    assert specflow._table is None


def test_edge_eigenvalues_are_listed_across_stacks():
    # gamma_nor(1) against l1 has -pi/2 in its spectrum at lambda = 0 and 1,
    # the first and the last window, in the first and the last stack: both
    # report it on their lower edge, as the windows located alone do
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    lams = np.linspace(0.0, 1.0, 2 * _STACK + 3)
    stacked = spectrum_window(fam, lams, -np.pi / 2, 1.0)
    for window in (stacked[0], stacked[-1]):
        assert window.eigenvalues == spectrum_window(fam, window.lam, -np.pi / 2, 1.0).eigenvalues
        ((mu, mult),) = window.eigenvalues
        assert mult == 1 and -np.pi / 2 <= mu <= -np.pi / 2 + specflow.MU_TOL
    assert all(mu > -np.pi / 2 + 1e-3 for w in stacked[1:-1] for mu, _ in w.eigenvalues)


@pytest.mark.parametrize(
    "base_grid, max_depth, where",
    [
        (None, 0, r"\[0\.3125, 0\.375\]"),
        ([0.0, 0.5, 1.0], 0, r"\[0, 0\.5\]"),
        ([0.0, 0.5, 1.0], 2, r"\[0\.125, 0\.25\]"),
    ],
)
def test_spectral_flow_depth_cap_names_the_leftmost_open_segment(base_grid, max_depth, where, monkeypatch):
    # the branch pi lambda - pi/2 of gamma_nor(1) against l1 needs refinement
    # on the default grid near lambda = 1/3 only, and on the halves of [0, 1]
    # for several levels; of the segments still open at the cap, the error
    # names the leftmost, the one a depth-first refinement meets first
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    if base_grid is not None:
        _base_grid(monkeypatch, base_grid)
    monkeypatch.setattr(specflow, "MAX_DEPTH", max_depth)
    with pytest.raises(RuntimeError, match="failed to separate eigenvalue branches on " + where):
        spectral_flow(fam)
    monkeypatch.setattr(specflow, "MAX_DEPTH", 4)
    assert spectral_flow(fam).value == 1


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
        (lambda fam: fundamental_solution(fam.S, np.zeros((2, 2)), 64), "lam must be a scalar or a 1-D"),
        (lambda fam: fundamental_solution(fam.S, np.zeros((2, 3)), 64), "lam must be a scalar or a 1-D"),
        (lambda fam: fundamental_solution(fam.S, [0.5, np.nan], 64), "lam must be finite"),
    ],
    ids=["nan-lam", "inf-in-lams", "inf-mu-min", "nan-mu-max", "nan-in-edges", "2x2-lams", "2x3-lams",
         "nan-in-solution-lams"],
)
def test_public_calls_reject_a_non_finite_or_misshaped_lambda_or_window_edge(call, match):
    S = SymmetricFamily.constant(0.3 * np.eye(2))
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)), S)
    with pytest.raises(ValueError, match=match):
        call(fam)


@pytest.mark.parametrize(
    "lam, mu_min, mu_max, match",
    [
        ([0.2, 0.3], [-1.0, -1.0, -1.0], 1.0, r"mu_min must be a scalar, got shape \(3,\)"),
        (0.2, [-1.0, -1.0], 1.0, r"mu_min must be a scalar, got shape \(2,\)"),
        ([0.2, 0.3], -1.0, [1.0], r"mu_max must be a scalar, got shape \(1,\)"),
        ([0.2, 0.3], [-1.0, -1.0], 1.0, r"mu_min must be a scalar, got shape \(2,\)"),
    ],
    ids=["3-lo-for-2", "2-lo-for-scalar", "1-hi-for-2", "2-lo-for-2"],
)
def test_spectrum_window_rejects_an_array_edge(lam, mu_min, mu_max, match):
    # every window of a call has the same scalar edges: an array edge, of
    # whatever length, is rejected by name
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    with pytest.raises(ValueError, match=match):
        spectrum_window(fam, lam, mu_min, mu_max)


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
