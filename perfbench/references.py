"""Reference answers computed apart from the program.

Everything here uses plain numpy/scipy on the JSON descriptors the benchmark
generates; nothing imports maslovflow.  Each check returns None when the
program's output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate
import scipy.linalg

# Eigenvalues of the fixed-step shooting carry RK4 error: the rotation part
# alone has a per-step phase error (|mu| h)^5 / 120, i.e. ~5e-7 at |mu| = 12
# with 256 steps.  Double eigenvalues polished by minimization are off by up
# to ~2e-7 on the walls family.  A reference position must lie this close.
MU_ATOL = 1e-5
# Smallest singular values of the independent detector at a confirmed
# eigenvalue; the detector grows like |mu - mu*| near a root.
DETECTOR_ATOL = 1e-5
# Scan step of spectrum_window: pi/8 shrunk by 1 + min(sup norm, 3).
_SCAN_BASE = np.pi / 8.0


def standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def orth(B) -> np.ndarray:
    Q, _ = np.linalg.qr(np.asarray(B, dtype=float))
    return Q


def _interp(points, lam: float) -> float:
    pts = np.asarray(points, dtype=float)
    return float(np.interp(lam, pts[:, 0], pts[:, 1]))


def _frame_spec(spec, n: int) -> np.ndarray:
    if spec == "l0":
        return np.vstack([np.eye(n), np.zeros((n, n))])
    if spec == "l1":
        return np.vstack([np.zeros((n, n)), np.eye(n)])
    return orth(spec)


def _diag_frame(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return np.vstack([np.diag(np.cos(theta)), np.diag(np.sin(theta))])


def frame(desc, n: int, lam: float) -> np.ndarray:
    """Orthonormal basis of the subspace a path descriptor gives at lambda."""
    kind = desc["type"]
    if kind == "constant":
        return _frame_spec(desc["frame"], n)
    if kind == "normalization":
        rest = [0.0] * (n - 1) if desc["which"] == "gamma_nor" else [np.pi / 2] * (n - 1)
        first = np.pi * lam if desc["which"] == "gamma_nor" else np.pi * lam - np.pi / 2
        return _diag_frame([first] + rest)
    if kind == "rotation":
        th = _interp(desc["theta"], lam)
        R = np.cos(th) * np.eye(2 * n) + np.sin(th) * standard_J(n)
        return R @ _frame_spec(desc["frame"], n)
    if kind == "unitary_diagonal":
        return _diag_frame([_interp(p, lam) for p in desc["phases"]])
    if kind == "symplectic_action":
        G = sum(np.asarray(g, dtype=float) * lam**k for k, g in enumerate(desc["generator"]))
        base = desc["base"]
        F = frame(base, n, lam) if isinstance(base, dict) else _frame_spec(base, n)
        return orth(scipy.linalg.expm(standard_J(n) @ G) @ F)
    if kind == "rotated":
        th = float(desc["angle"])
        R = np.cos(th) * np.eye(2 * n) + np.sin(th) * standard_J(n)
        return R @ frame(desc["path"], n, lam)
    raise ValueError(f"no reference frame for descriptor type {kind!r}")


def souriau(F: np.ndarray) -> np.ndarray:
    n = F.shape[1]
    U = F[:n] + 1j * F[n:]
    return U @ U.T


def transversal(F1: np.ndarray, F2: np.ndarray, tol: float = 1e-3) -> bool:
    """The two Lagrangian subspaces meet only in zero, with margin tol."""
    return bool(np.linalg.svd(np.hstack([F1, F2]), compute_uv=False)[-1] > tol)


def free_spectrum(F1: np.ndarray, F2: np.ndarray, lo: float, hi: float) -> list:
    """Eigenvalues with S = 0 in [lo, hi], with repetition.

    The transfer matrix is exp(-mu J), multiplication by e^{-i mu}, so mu is an
    eigenvalue exactly when mu = phi/2 mod pi for an eigenphase phi of
    W1 conj(W2), with the multiplicity of phi.
    """
    phases = np.angle(np.linalg.eigvals(souriau(F1) @ souriau(F2).conj()))
    out = []
    for phi in phases:
        base = phi / 2.0
        k = int(np.ceil((lo - base) / np.pi))
        while base + k * np.pi <= hi:
            out.append(base + k * np.pi)
            k += 1
    return sorted(out)


def coeff_bound(coeffs, lam: float) -> float:
    """Upper bound on sup_t ||S_lambda(t)||_2 from the t-polynomial coefficients."""
    C = np.asarray(coeffs, dtype=float)
    at_lam = np.tensordot(float(lam) ** np.arange(C.shape[0]), C, axes=(0, 0))
    return float(sum(np.linalg.norm(M, 2) for M in at_lam))


def family_at(coeffs, lam: float, t) -> np.ndarray:
    C = np.asarray(coeffs, dtype=float)
    at_lam = np.tensordot(float(lam) ** np.arange(C.shape[0]), C, axes=(0, 0))
    return np.tensordot(np.asarray(t, dtype=float)[..., None] ** np.arange(C.shape[1]), at_lam, axes=(-1, 0))


def scan_step(sup_norm: float) -> float:
    return _SCAN_BASE / (1.0 + min(sup_norm, 3.0))


def _window_values(eigenvalues) -> list:
    out = []
    for mu, mult in eigenvalues:
        out.extend([float(mu)] * int(mult))
    return out


def compare_spectrum(eigenvalues, expected, lo: float, hi: float, edge_reach: float):
    """Compare a window's (mu, multiplicity) list with a closed-form spectrum.

    Returns None on a match, ("edge-miss", reason) when the only difference is
    a missing eigenvalue of multiplicity >= 2 within edge_reach of a window
    edge, and ("wrong", reason) otherwise.
    """
    got = _window_values(eigenvalues)
    want = sorted(float(x) for x in expected if lo < x < hi)
    unmatched = list(got)
    missing = []
    for mu in want:
        j = min(range(len(unmatched)), key=lambda i: abs(unmatched[i] - mu), default=None)
        if j is not None and abs(unmatched[j] - mu) <= MU_ATOL:
            unmatched.pop(j)
        else:
            missing.append(mu)
    if not missing and not unmatched:
        return None
    if unmatched:
        return ("wrong", f"unexpected eigenvalues {unmatched[:4]} (expected {want[:8]})")
    groups = {}
    for mu in missing:
        key = min(groups, key=lambda g: abs(g - mu), default=None)
        if key is not None and abs(key - mu) <= MU_ATOL:
            groups[key] += 1
        else:
            groups[mu] = 1
    at_edge = all(
        mult >= 2 and min(mu - lo, hi - mu) < edge_reach for mu, mult in groups.items()
    )
    reason = f"missing eigenvalues {sorted(groups.items())} in ({lo:.6g}, {hi:.6g})"
    return ("edge-miss", reason) if at_edge else ("wrong", reason)


def walls_spectrum(c: float, n: int, lam: float, lo: float, hi: float) -> list:
    """S = c lambda I with {0} x R^n at both ends: k pi + c lambda, multiplicity n."""
    shift = c * lam
    k0 = int(np.ceil((lo - shift) / np.pi))
    out = []
    k = k0
    while shift + k * np.pi <= hi:
        out.extend([shift + k * np.pi] * n)
        k += 1
    return out


def scalar_spectrum(f_coeffs, n: int, lam: float, lo: float, hi: float) -> list:
    """S = f(lambda, t) I on (gamma_nor, {0} x R^n).

    f I commutes with J, so the transfer matrix is exp(-(mu - F) J) with
    F = int_0^1 f(lambda, t) dt: the S = 0 spectrum shifted by F.
    """
    f = np.asarray(f_coeffs, dtype=float)  # [j][k]: coefficient of lambda^j t^k
    F = float(sum(f[j, k] * lam**j / (k + 1) for j in range(f.shape[0]) for k in range(f.shape[1])))
    g1 = frame({"type": "normalization", "which": "gamma_nor"}, n, lam)
    g2 = frame({"type": "constant", "frame": "l1"}, n, lam)
    return [mu + F for mu in free_spectrum(g1, g2, lo - F, hi - F) if lo < mu + F < hi]


def shoot(coeffs, n: int, lam: float, mus, F1: np.ndarray) -> np.ndarray:
    """Phi_mu(1) F1 for every mu at once, by an adaptive Runge-Kutta solver.

    Phi' = (J S_lambda(t) - mu J) Phi, as in the program's convention, but
    integrated with scipy's DOP853 at tight tolerances instead of fixed steps.
    """
    J = standard_J(n)
    mus = np.asarray(mus, dtype=float)
    m = len(mus)
    dim = 2 * n

    def rhs(t, y):
        Y = y.reshape(m, dim, n)
        K = J @ family_at(coeffs, lam, t) - mus[:, None, None] * J
        return (K @ Y).ravel()

    y0 = np.broadcast_to(F1, (m, dim, n)).ravel()
    sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(m, dim, n)


def check_general_window(desc1, desc2, coeffs, n: int, lam: float, lo: float, hi: float, eigenvalues):
    """Confirm each reported eigenvalue by independent integration, and the
    count by the min-max bounds N0[lo+s, hi-s] <= N <= N0[lo-s, hi+s]."""
    F1 = frame(desc1, n, lam)
    F2 = frame(desc2, n, lam)
    if eigenvalues:
        ends = shoot(coeffs, n, lam, [mu for mu, _ in eigenvalues], F1)
        for (mu, mult), E in zip(eigenvalues, ends):
            sv = np.linalg.svd(np.hstack([orth(E), F2]), compute_uv=False)
            if np.any(sv[-mult:] > DETECTOR_ATOL):
                return ("wrong", f"mu={mu:.10g} (x{mult}) not confirmed: detector {sv[-mult:].tolist()}")
            if mult < n and sv[-mult - 1] <= DETECTOR_ATOL:
                return ("wrong", f"mu={mu:.10g} has multiplicity above the reported {mult}")
    s = coeff_bound(coeffs, lam)
    count = sum(int(m) for _, m in eigenvalues)
    low = len(free_spectrum(F1, F2, lo + s, hi - s)) if hi - lo > 2 * s else 0
    high = len(free_spectrum(F1, F2, lo - s, hi + s))
    if not low <= count <= high:
        return ("wrong", f"{count} eigenvalues in ({lo:.6g}, {hi:.6g}) outside min-max bounds [{low}, {high}]")
    return None


def check_clm(values: dict, expected):
    """Both integers agree, and equal the known index where one is known."""
    sfl, mas = values["spectral_flow"], values["maslov_transported"]
    if sfl != mas:
        return ("wrong", f"spectral flow {sfl} != Maslov index {mas}")
    if expected is not None and sfl != expected:
        return ("wrong", f"both integers are {sfl}, the homotopy argument gives {expected}")
    return None


def check_axioms(values: dict):
    """Every pair-index axiom on one draw."""
    rules = {
        "normalization": values["nor"] == 1 and values["nor_prime"] == -1,
        "transversal-vanishing": values["transversal"] == 0,
        "concatenation": values["concat_whole"] == values["concat_first"] + values["concat_second"],
        "reparametrization": values["reparametrized"] == values["base"],
        "antisymmetry": values["swapped"] == -values["base"],
        "symplectic-invariance": values["acted"] == values["base"],
        "reversal": values["reversed"] == -values["base"],
        "regularization": values["regularized"] == values["base"],
    }
    broken = [name for name, ok in rules.items() if not ok]
    return ("wrong", f"axioms violated: {broken} on {values}") if broken else None
