"""Classical RK4 for the linear flow Phi' = K(t) Phi as a product of step propagators.

One RK4 step from t_k to t_k + h is linear in Phi, so it is a matrix:

    P_k = I + h/6 (A + 2 K2 + 2 K3 + K4),   A = K(t_k),
    K2 = M (I + h/2 A),  K3 = M (I + h/2 K2),  K4 = B (I + h K3),

with M = K(t_k + h/2) and B = K(t_k + h).  All steps are built at once from
the coefficient samples, and the solution is the ordered product
P_{N-1} ... P_1 P_0.  Reassociating that product changes the arithmetic only
by rounding, so the end matrix is multiplied pairwise in log depth and the
whole trajectory by a log-depth inclusive prefix scan (Hillis-Steele), in
place of a sequential loop of tiny matrix products.
"""

from __future__ import annotations

import numpy as np


def rk4_step_propagators(nodes: np.ndarray, mids: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagators P_k for every step at once.

    nodes holds K at the step ends, shape (..., N + 1, d, d); mids holds K at
    the step midpoints, shape (..., N, d, d).  Returns shape (..., N, d, d).
    """
    eye = np.eye(nodes.shape[-1])
    A = nodes[..., :-1, :, :]
    K = mids @ (eye + (0.5 * h) * A)
    P = A + 2.0 * K
    K = mids @ (eye + (0.5 * h) * K)
    P += 2.0 * K
    P += nodes[..., 1:, :, :] @ (eye + h * K)
    P *= h / 6.0
    P += eye
    return P


def ordered_product(P: np.ndarray) -> np.ndarray:
    """P[N-1] @ ... @ P[0] along axis -3, multiplied pairwise in log depth.

    An odd leftover (the latest step) is carried to the next level unchanged.
    """
    while P.shape[-3] > 1:
        m = P.shape[-3]
        pairs = P[..., 1::2, :, :] @ P[..., 0 : m - 1 : 2, :, :]
        if m % 2:
            pairs = np.concatenate([pairs, P[..., m - 1 :, :, :]], axis=-3)
        P = pairs
    return P[..., 0, :, :]


def prefix_products(P: np.ndarray) -> np.ndarray:
    """Inclusive ordered prefix products X[k] = P[k] @ ... @ P[0] along axis -3."""
    X = np.array(P, dtype=float)
    off = 1
    while off < X.shape[-3]:
        X[..., off:, :, :] = X[..., off:, :, :] @ X[..., :-off, :, :]
        off *= 2
    return X
