"""Finite-dimensional symplectic linear algebra.

Lagrangian frames in R^(2n), their unitary and Souriau representatives,
intersection dimensions, and the gap metric between subspaces.  Frames are
the primary subspace representation throughout; orthogonal projectors are
derived on demand.  Whether gaps exceed a bound is decided from the n x n
overlaps of the frames, with projectors only where the overlap leaves it
open (`gaps_exceed`).  Each Lagrangian, Souriau and symplectic invariant has
one check, written on stacks (`lagrangian_frames`, `_unitary_check`,
`_souriau_checks`, `_check_each`); the scalar dataclasses validate through
these stack checkers as stacks of one.  The checks of one stack are decided
together, by one `within_each` over all their deviations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

FRAME_ATOL = 1e-10
SOURIAU_ATOL = 1e-9
RANK_TOL = 1e-8


def check_integer(value, name: str) -> None:
    """Raise a ValueError naming `name` unless value is an integer; a bool
    or an integral float is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def standard_J(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, -I], [I, 0]], one read-only array per n.

    Satisfies J^2 = -I, J^T = -J and ||J||_2 = 1; it encodes the standard
    symplectic form omega(x, y) = <Jx, y>.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"half-dimension n must be a positive integer, got {n!r}")
    return _standard_J(int(n))


@functools.cache
def _standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    J.setflags(write=False)
    return J


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, one read-only array per n."""
    I = np.eye(n)
    I.setflags(write=False)
    return I


def norm2(M: np.ndarray):
    """Spectral norm of a 2-D matrix: bit for bit np.linalg.norm(M, 2).

    For a stack (m, r, c) of matrices, the array of their m spectral norms,
    each bit for bit that of the matrix alone.
    """
    s = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(s) if s.ndim == 0 else s


def within(M: np.ndarray, bound: float) -> bool:
    """norm2(M) <= bound: within_each on a stack of one."""
    return bool(within_each(M[None], bound)[0])


def within_each(M: np.ndarray, bound: float) -> np.ndarray:
    """norm2(M[k]) <= bound for every matrix of a stack (m, r, c), as a bool
    array, decided by the Frobenius norm where that suffices.

    ||M||_2 <= ||M||_F, so a Frobenius norm clearly below bound accepts
    without an SVD; the 1e-12 relative margin covers the rounding of both
    norms, so each decision is that of the exact spectral-norm test, which is
    taken only where the Frobenius norm does not accept and is finite: a
    matrix whose Frobenius norm is nan or inf fails without an SVD.
    """
    fro = np.sqrt(np.einsum("kij,kij->k", M, M.conj()).real)
    ok = fro <= bound * (1.0 - 1e-12)
    if not ok.all():
        test = ~ok & np.isfinite(fro)
        ok[test] = norm2(M[test]) <= bound
    return ok


def _check_each(bound: float, *checks) -> None:
    """Each check is a pair (M, message) of a matrix or a stack of matrices,
    all of one shape, and its message.  One within_each over all of them
    decides; the first check with a matrix not within bound raises
    ValueError(message) with the 2-norm of its first such matrix, or its
    Frobenius norm where that is nan or inf."""
    devs = [dev.reshape(-1, *dev.shape[-2:]) for dev, _ in checks]
    ok = within_each(np.concatenate(devs) if len(devs) > 1 else devs[0], bound)
    if ok.all():
        return
    for (_, message), dev, ok_k in zip(checks, devs, ok.reshape(len(devs), -1)):
        if not ok_k.all():
            raise ValueError(message.format(reported_norm(dev[np.argmin(ok_k)])))


def reported_norm(M: np.ndarray) -> float:
    """The 2-norm of a matrix for an error message, or its Frobenius norm
    where that is nan or inf, on which the SVD would not converge."""
    fro = np.linalg.norm(M)
    return norm2(M) if np.isfinite(fro) else fro


def _unitary_check(U: np.ndarray):
    """The check that each matrix of a stack (m, n, n) of frame blocks X + iY
    is unitary, for _check_each at SOURIAU_ATOL."""
    return (np.swapaxes(U.conj(), 1, 2) @ U - _identity(U.shape[-1]),
            "frame does not yield a unitary representative: {:.3e}")


def _souriau_checks(W: np.ndarray):
    """The checks that each matrix of a stack (m, n, n) is unitary and
    symmetric, for _check_each at SOURIAU_ATOL."""
    Wt = np.swapaxes(W, 1, 2)
    return ((Wt.conj() @ W - _identity(W.shape[-1]), "matrix is not unitary: deviation {:.3e}"),
            (W - Wt, "matrix is not symmetric: ||W - W^T|| = {:.3e}"))


def _orthonormal_columns(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(B), column-pivoted QR plus a second pass."""
    B = np.asarray(B, dtype=float)
    Q, _, _ = scipy.linalg.qr(B, mode="economic", pivoting=True)
    Q, _ = np.linalg.qr(Q)
    return np.ascontiguousarray(Q[:, : B.shape[1]])


def subspace_frame(B: np.ndarray) -> np.ndarray:
    """Orthonormal frame of span(B) for a general full-rank basis matrix
    (singular values above RANK_TOL relative to the largest)."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] == 0:
        raise ValueError("basis must be a matrix with at least one column")
    s = np.linalg.svd(B, compute_uv=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    if rank < B.shape[1]:
        raise ValueError(
            f"basis is rank deficient: numerical rank {rank} < {B.shape[1]} columns"
        )
    return _orthonormal_columns(B)


@dataclass(frozen=True)
class LagrangianFrame:
    """A real 2n x n matrix with orthonormal columns spanning a Lagrangian subspace.

    Construction validates both invariants: ||F^T F - I|| <= 1e-10 and
    ||F^T J F|| <= 1e-10.  The stored array is read-only.
    """

    n: int
    F: np.ndarray

    def __post_init__(self):
        F = np.array(self.F, dtype=float)
        if F.shape != (2 * self.n, self.n):
            raise ValueError(f"frame must be {2 * self.n} x {self.n}, got {F.shape}")
        object.__setattr__(self, "F", lagrangian_frames(F[None])[0])

    @classmethod
    def _checked(cls, n: int, F: np.ndarray) -> "LagrangianFrame":
        """The frame of a read-only F that lagrangian_frames has checked."""
        L = object.__new__(cls)
        object.__setattr__(L, "n", n)
        object.__setattr__(L, "F", F)
        return L

    @property
    def projector(self) -> np.ndarray:
        return self.F @ self.F.T


@dataclass(frozen=True)
class SouriauMatrix:
    """The complex symmetric unitary W = U U^T attached to a Lagrangian subspace."""

    n: int
    W: np.ndarray

    def __post_init__(self):
        W = np.array(self.W, dtype=complex)
        if W.shape != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n} x {self.n}, got {W.shape}")
        _check_each(SOURIAU_ATOL, *_souriau_checks(W[None]))
        W.setflags(write=False)
        object.__setattr__(self, "W", W)


def frame_from_basis(B: np.ndarray) -> LagrangianFrame:
    """Orthonormal Lagrangian frame with the same column span as B.

    B must be 2n x n with independent columns spanning an isotropic subspace.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] % 2 != 0:
        raise ValueError(f"basis must be a 2n x n matrix, got shape {B.shape}")
    n = B.shape[0] // 2
    if B.shape[1] != n:
        raise ValueError(f"expected {n} columns for a Lagrangian basis, got {B.shape[1]}")
    return LagrangianFrame(n, subspace_frame(B))


def lagrangian_frames(F: np.ndarray) -> np.ndarray:
    """A stack (m, 2n, n) of Lagrangian frames, checked (orthonormal columns
    and an isotropic span, each within FRAME_ATOL) and made read-only;
    LagrangianFrame checks one frame here as a stack of one."""
    n = F.shape[-1]
    Ft = np.swapaxes(F, 1, 2)
    _check_each(FRAME_ATOL, (Ft @ F - _identity(n), "columns not orthonormal: ||F^T F - I|| = {:.3e}"),
                (Ft @ standard_J(n) @ F, "span is not isotropic: ||F^T J F|| = {:.3e}"))
    F.setflags(write=False)
    return F


def nearest_lagrangian_frames(B: np.ndarray) -> np.ndarray:
    """Project a stack (m, 2n, n) of bases, orthonormal or not, of nearly
    isotropic spans onto Lagrangian frames (checked by lagrangian_frames).

    The polar factor of M = X + iY, B = [X; Y], is the nearest unitary.  For
    an isotropic span M*M = B^T B is real, so its frame B (B^T B)^(-1/2) is
    an orthonormal basis of span B, and a right factor of B moves no
    subspace; for a small isotropy defect it spans a genuinely Lagrangian
    subspace a comparable distance away.  Exactly Lagrangian input is
    reproduced.
    """
    n = B.shape[-1]
    U, _, Vt = np.linalg.svd(B[:, :n] + 1j * B[:, n:])
    W = U @ Vt
    return lagrangian_frames(np.concatenate([W.real, W.imag], axis=1))


def l0_frame(n: int) -> LagrangianFrame:
    """Frame of the horizontal Lagrangian R^n x {0}."""
    return LagrangianFrame(n, np.vstack([np.eye(n), np.zeros((n, n))]))


def l1_frame(n: int) -> LagrangianFrame:
    """Frame of the vertical Lagrangian {0} x R^n."""
    return LagrangianFrame(n, np.vstack([np.zeros((n, n)), np.eye(n)]))


def unitary_representative(L: LagrangianFrame) -> np.ndarray:
    """The unitary U = X + iY built from the frame blocks F = [X; Y].

    U maps R^n x {0} onto L under the identification of R^(2n) with C^n;
    it is determined by L up to a right orthogonal factor.
    """
    U = L.F[: L.n, :] + 1j * L.F[L.n :, :]
    _check_each(SOURIAU_ATOL, _unitary_check(U[None]))
    return U


def souriau(L: LagrangianFrame) -> SouriauMatrix:
    """The frame-independent representative W = U U^T of L in U(n)/O(n)."""
    U = unitary_representative(L)
    return SouriauMatrix(L.n, U @ U.T)


def souriau_stack(F: np.ndarray) -> np.ndarray:
    """Souriau matrices W = U U^T of a stack (m, 2n, n) of Lagrangian frames,
    each bit for bit that of souriau, with the same three checks decided
    together on the whole stack: U unitary, W unitary and W symmetric, within
    SOURIAU_ATOL."""
    n = F.shape[-1]
    U = F[:, :n] + 1j * F[:, n:]
    W = U @ np.swapaxes(U, 1, 2)
    _check_each(SOURIAU_ATOL, _unitary_check(U), *_souriau_checks(W))
    return W


def intersection_dimension(L1: LagrangianFrame, L2: LagrangianFrame) -> int:
    """dim(L1 cap L2) = 2n - rank([F1 | F2]), rank by singular values.

    Singular values below RANK_TOL * sigma_max count as zero.
    """
    if L1.n != L2.n:
        raise ValueError(f"half-dimension mismatch: {L1.n} vs {L2.n}")
    s = np.linalg.svd(np.hstack([L1.F, L2.F]), compute_uv=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return 2 * L1.n - rank


def _frame_matrix(L) -> np.ndarray:
    """Accept a LagrangianFrame (validated at construction) or a plain
    orthonormal-column matrix or stack of them (checked here)."""
    if isinstance(L, LagrangianFrame):
        return L.F
    Q = np.asarray(L, dtype=float)
    if Q.ndim not in (2, 3):
        raise ValueError("subspace frame must be a matrix or a stack of matrices")
    if Q.shape[-1] > 0:
        dev = np.swapaxes(Q, -1, -2) @ Q - _identity(Q.shape[-1])
        _check_each(1e-8, (dev, "frame columns are not orthonormal: deviation {:.3e}"))
    return Q


def gap_distance(L1, L2):
    """Gap metric ||P1 - P2||_2 between the spans of two orthonormal frames.

    Accepts Lagrangian frames or general subspace frames of any ranks in a
    common ambient space; zero exactly for equal subspaces.  Given stacks
    (m, N, k) of frames, the m gaps of corresponding frames, as an array.
    """
    Q1, Q2 = _frame_matrix(L1), _frame_matrix(L2)
    if Q1.shape[-2] != Q2.shape[-2]:
        raise ValueError(f"ambient dimension mismatch: {Q1.shape[-2]} vs {Q2.shape[-2]}")
    P1 = Q1 @ np.swapaxes(Q1, -1, -2)
    P2 = Q2 @ np.swapaxes(Q2, -1, -2)
    return norm2(P1 - P2)


def gaps_exceed(Q1: np.ndarray, Q2: np.ndarray, bound: float) -> np.ndarray:
    """gap_distance(Q1, Q2) > bound for each pair of two stacks (m, 2n, n)
    of frames checked by lagrangian_frames, as a bool array, decided from
    the n x n overlaps M = Q1^T Q2 where that suffices; 0 < bound <= 1.

    For orthonormal frames the singular values of M are the cosines of the
    n principal angles between the spans, so s = n - ||M||_F^2 is the sum
    of their squared sines, and the gap is the sine of the largest (Kato,
    IV 2; Bjorck and Golub 1973): s / n <= gap^2 <= s.  A row with
    s > n (bound^2 + 1e-8) exceeds the bound and one with
    s <= bound^2 - n 1e-8 does not; gap_distance decides the rows between.

    Proof that each decision is that of gap_distance on the same frames:
    write Q = O H with O orthonormal and H symmetric, its eigenvalues in
    [sqrt(1 - d), sqrt(1 + d)] for d = FRAME_ATOL.  Then M = H1 O1^T O2 H2
    and ||O1^T O2||_F^2 <= n, so s is within (2 d + d^2) n plus a rounding
    error below 4.4e-16 n^2.5, so below 2.1e-10 n for n up to 800, of the s
    of the O's.
    So a decided row has the exact squared gap g^2 of its spans at least
    0.97e-8 above or 0.97e-8 n below bound^2, and g + bound <= 2 puts g at
    least 4.8e-9 from the bound.  gap_distance(Q1, Q2) differs from g by at
    most ||Q1 Q1^T - O1 O1^T|| + ||Q2 Q2^T - O2 O2^T|| <= 2 d = 2e-10.
    """
    n = Q1.shape[-1]
    M = np.swapaxes(Q1, 1, 2) @ Q2
    s = n - np.einsum("kij,kij->k", M, M)
    out = s > n * (bound**2 + 1e-8)
    band = ~out & (s > bound**2 - n * 1e-8)
    if band.any():
        out[band] = gap_distance(Q1[band], Q2[band]) > bound
    return out


def directed_gap(L1, L2) -> float:
    """One-sided gap sup over unit u in L1 of dist(u, L2), i.e. ||(I - P2) P1||_2."""
    Q1, Q2 = _frame_matrix(L1), _frame_matrix(L2)
    if Q1.shape[1] == 0:
        raise ValueError("directed gap is undefined for the zero subspace")
    if Q1.shape[0] != Q2.shape[0]:
        raise ValueError(f"ambient dimension mismatch: {Q1.shape[0]} vs {Q2.shape[0]}")
    P1 = Q1 @ Q1.T
    P2 = Q2 @ Q2.T
    return norm2((np.eye(Q1.shape[0]) - P2) @ P1)


@dataclass(frozen=True)
class KatoProjectionReport:
    """The three projection norms of the Kato identity check."""

    norm_ImP_Q: float
    norm_ImQ_P: float
    norm_P_minus_Q: float
    hypothesis_met: bool
    max_discrepancy: float


def kato_projection_identity_check(P: np.ndarray, Q: np.ndarray) -> KatoProjectionReport:
    """Check ||(I-P)Q|| = ||(I-Q)P|| = ||P - Q|| for orthogonal projections.

    The identity holds whenever both one-sided norms are < 1; in that case a
    discrepancy above 1e-10 raises.  Otherwise the report flags the hypothesis
    as not met and carries the norms unchanged.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    for name, R in (("P", P), ("Q", Q)):
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError(f"{name} must be a square matrix")
        if not (within(R @ R - R, 1e-10) and within(R - R.T, 1e-10)):
            raise ValueError(f"{name} is not an orthogonal projection")
    I = np.eye(P.shape[0])
    a = norm2((I - P) @ Q)
    b = norm2((I - Q) @ P)
    c = norm2(P - Q)
    hypothesis = a < 1.0 and b < 1.0
    disc = max(abs(a - b), abs(a - c), abs(b - c))
    if hypothesis and disc > 1e-10:
        raise ArithmeticError(
            f"projection-norm identity violated: norms ({a:.12e}, {b:.12e}, {c:.12e})"
        )
    return KatoProjectionReport(a, b, c, hypothesis, disc)


def rotation_matrix(n: int, theta) -> np.ndarray:
    """exp(theta J) = cos(theta) I + sin(theta) J, evaluated in closed form;
    for an array of m angles, the stack (m, 2n, 2n)."""
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * np.eye(2 * n) + np.sin(theta) * standard_J(n)


def rotate(L: LagrangianFrame, theta: float) -> LagrangianFrame:
    """Frame of exp(theta J) L; rotations are orthogonal so no renormalization."""
    return LagrangianFrame(L.n, rotation_matrix(L.n, theta) @ L.F)
