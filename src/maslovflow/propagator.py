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

Shooting propagates K(t) + mu D for many values of a scalar mu.  Each stage is
then a matrix polynomial in mu (A and M of degree 1, K2 of degree 2, K3 of 3,
K4 of 4), so P_k(mu) = sum_j C_kj mu^j with C_k4 = (h^4/24) D^4.  The C_kj are
built once from the same stage formulas applied to coefficient arrays, and
the steps for a batch of mu are one matrix product of the mu-powers with C.
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


def rk4_step_coefficients(nodes: np.ndarray, mids: np.ndarray, h: float, D: np.ndarray) -> np.ndarray:
    """Coefficients C[j] of the RK4 propagators of K(t) + mu D as polynomials in mu.

    nodes and mids sample K(t) as in rk4_step_propagators, shape (N + 1, d, d)
    and (N, d, d); D is a constant (d, d) matrix.  Returns shape (5, N, d, d):
    the propagator of step k at mu is sum_j C[j, k] mu^j.
    """
    eye = np.eye(nodes.shape[-1])

    def times(X, c):  # (X + mu D) c, for c stacked in ascending degree
        out = np.zeros((len(c) + 1,) + mids.shape)
        out[:-1] = X @ c
        out[1:] += D @ c
        return out

    def one_plus(s, c):  # I + s c
        c = s * c
        c[0] += eye
        return c

    A = np.stack([nodes[:-1], np.broadcast_to(D, mids.shape)])
    C = np.zeros((5,) + mids.shape)
    C[:2] = A
    K = times(mids, one_plus(0.5 * h, A))
    C[:3] += 2.0 * K
    K = times(mids, one_plus(0.5 * h, K))
    C[:4] += 2.0 * K
    C += times(nodes[1:], one_plus(h, K))
    C *= h / 6.0
    C[0] += eye
    return C


def rk4_steps_at(C: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The step propagators sum_j C[j] mu^j for each mu, shape (m, N, d, d),
    as one matrix product of the (m, 5) mu-powers with C."""
    powers = np.asarray(mus, dtype=float)[:, None] ** np.arange(C.shape[0])
    return (powers @ C.reshape(C.shape[0], -1)).reshape((len(powers),) + C.shape[1:])


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
