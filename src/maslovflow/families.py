"""Two-parameter polynomial families of symmetric matrices.

S_lambda(t) is stored through polynomial coefficients of degree at most four
in each variable; coefficients are mirrored from their upper triangles so
every evaluation is symmetric to the last bit.
"""

from __future__ import annotations

import numpy as np

from .symplectic import norm2

MAX_DEGREE = 4


def _exact_symmetric(A: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle; the result is bitwise symmetric."""
    U = np.triu(A)
    return U + np.triu(A, 1).T


class SymmetricFamily:
    """Polynomial map (lambda, t) -> symmetric 2n x 2n matrix.

    coeffs has shape (deg_lambda + 1, deg_t + 1, 2n, 2n); entry [j, k] is the
    coefficient of lambda^j t^k.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 4 or coeffs.shape[2] != coeffs.shape[3]:
            raise ValueError("coefficients must have shape (dl+1, dt+1, 2n, 2n)")
        if coeffs.shape[2] % 2 != 0:
            raise ValueError("matrix dimension must be even")
        if coeffs.shape[0] > MAX_DEGREE + 1 or coeffs.shape[1] > MAX_DEGREE + 1:
            raise ValueError(f"polynomial degree exceeds {MAX_DEGREE}")
        sym = np.empty_like(coeffs)
        for j in range(coeffs.shape[0]):
            for k in range(coeffs.shape[1]):
                sym[j, k] = _exact_symmetric(coeffs[j, k])
        sym.setflags(write=False)
        self.coeffs = sym
        self.n = coeffs.shape[2] // 2
        self._sup = None

    @classmethod
    def zero(cls, n: int) -> "SymmetricFamily":
        return cls(np.zeros((1, 1, 2 * n, 2 * n)))

    @classmethod
    def constant(cls, matrix) -> "SymmetricFamily":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix[None, None, :, :])

    def __call__(self, lam: float, t) -> np.ndarray:
        lam_pows = float(lam) ** np.arange(self.coeffs.shape[0])
        ct = np.tensordot(lam_pows, self.coeffs, axes=(0, 0))
        t = np.asarray(t, dtype=float)
        t_pows = t[..., None] ** np.arange(self.coeffs.shape[1])
        return np.tensordot(t_pows, ct, axes=(-1, 0))

    def sup_norm(self) -> float:
        """Sup over a 17 x 17 grid of (lambda, t) of the spectral norm."""
        if self._sup is None:
            grid = np.linspace(0.0, 1.0, 17)
            best = 0.0
            for lam in grid:
                mats = self(lam, grid)
                best = max(best, max(norm2(M) for M in mats))
            self._sup = float(best)
        return self._sup

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def t_independent(self) -> bool:
        """True when S_lambda(t) does not depend on t."""
        return self.coeffs.shape[1] == 1 or not np.any(self.coeffs[:, 1:])

    def shifted(self, delta: float) -> "SymmetricFamily":
        """The family S + delta I."""
        coeffs = np.array(self.coeffs)
        coeffs[0, 0] += delta * np.eye(2 * self.n)
        return SymmetricFamily(coeffs)

    def scaled(self, factor: float) -> "SymmetricFamily":
        return SymmetricFamily(self.coeffs * factor)

    def serialize(self):
        return {"coefficients": self.coeffs.tolist()}

    @classmethod
    def deserialize(cls, data) -> "SymmetricFamily":
        return cls(np.asarray(data["coefficients"], dtype=float))
