"""Two-parameter polynomial families of symmetric matrices.

S_lambda(t) is stored through polynomial coefficients of degree at most four
in each variable; coefficients are mirrored from their upper triangles so
every evaluation is symmetric to the last bit.
"""

from __future__ import annotations

import numpy as np

from .symplectic import norm2

MAX_DEGREE = 4


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
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite numbers")
        # mirror each upper triangle: every coefficient is bitwise symmetric
        sym = np.triu(coeffs) + np.swapaxes(np.triu(coeffs, 1), -1, -2)
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

    def __call__(self, lam, t) -> np.ndarray:
        """S_lambda(t), shape t.shape + (2n, 2n) for a scalar lambda and
        (m,) + t.shape + (2n, 2n) for a 1-D array of m lambdas; each matrix of
        a lambda array is bit for bit that of its lambda alone, and each
        matrix of a t array that of its t alone."""
        t = np.asarray(t, dtype=float)
        # numpy multiplies a single row of t powers as a matrix-vector
        # product, which rounds apart from the same row in a longer batch, so
        # one t is evaluated as a batch of two
        rows = t.reshape(-1, 1)
        t_pows = (rows.repeat(2, axis=0) if len(rows) == 1 else rows) ** np.arange(self.coeffs.shape[1])
        # one row of lambda powers per matrix product, so that no lambda's
        # matrices depend on the others (a multi-row product rounds apart);
        # a scalar lambda is a stack of one
        lam = np.asarray(lam, dtype=float)
        lam_pows = np.atleast_1d(lam)[:, None, None] ** np.arange(self.coeffs.shape[0])
        ct = lam_pows @ self.coeffs.reshape(self.coeffs.shape[0], -1)
        ct = ct.reshape((len(lam_pows), self.coeffs.shape[1], -1))
        out = (t_pows @ ct)[:, : t.size].reshape((len(lam_pows),) + t.shape + self.coeffs.shape[2:])
        return out if lam.ndim else out[0]

    def lambda_coefficients(self, t) -> np.ndarray:
        """The coefficients S_i(t) of lambda^i in S_lambda(t) = sum_i lambda^i S_i(t),
        shape (deg_lambda + 1,) + t.shape + (2n, 2n)."""
        t = np.asarray(t, dtype=float)
        t_pows = t.reshape(-1, 1) ** np.arange(self.coeffs.shape[1])
        out = t_pows @ self.coeffs.reshape(self.coeffs.shape[:2] + (-1,))
        return out.reshape(self.coeffs.shape[:1] + t.shape + self.coeffs.shape[2:])

    def sup_norm(self) -> float:
        """Sup over a 17 x 17 grid of (lambda, t) of the spectral norm."""
        if self._sup is None:
            grid = np.linspace(0.0, 1.0, 17)
            self._sup = float(np.max(norm2(self(grid, grid).reshape((-1,) + self.coeffs.shape[2:]))))
        return self._sup

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def t_independent(self) -> bool:
        """True when S_lambda(t) does not depend on t."""
        return self.coeffs.shape[1] == 1 or not np.any(self.coeffs[:, 1:])

    def shifted(self, delta: float) -> "SymmetricFamily":
        """The family S + delta I."""
        if not np.isfinite(delta):
            raise ValueError(f"delta must be finite, got {delta!r}")
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
