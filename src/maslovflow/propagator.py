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

Shooting propagates K(lambda, t) - mu J for many values of the scalars lambda
and mu.  Each stage is then a matrix polynomial in mu (A and M of degree 1, K2
of degree 2, K3 of 3, K4 of 4), so P_k(mu) = sum_j C_kj mu^j with
C_k4 = (h^4/24) J^4 = (h^4/24) I.  With K = sum_i lambda^i K_i(t) a
polynomial of degree L - 1 in lambda, each C_kj is one of degree
(4 - j)(L - 1) in lambda.  Its coefficients, the table T[j][i], are built
once per family from the same stage formulas applied to arrays indexed by
the powers of mu and lambda; a lambda's C_kj is then one product of its
lambda-powers with T[j].  Once per lambda, paired_steps multiplies each two
consecutive steps out exactly, as polynomials of degree 8 in mu, so a batch
of mu evaluates and multiplies half as many propagators: its steps are one
matrix product of the mu-powers with the paired coefficients.  As C_k4 is a
multiple of I, the pairing multiplies only 16 of the 25 coefficient pairs as
matrices, and the products with C_k4 as scalars.

For t-independent K the flow is exp(K) exactly; expm_stack forms it for a
whole stack of generators at once by Higham's degree-13 Pade approximant with
scaling and squaring, each matrix scaled by its own power of two, so every
matrix comes out bit for bit as it would alone.
"""

from __future__ import annotations

import numpy as np

from .symplectic import standard_J

# steps of the coefficient table built together: the stage arrays of one
# chunk are the build's only temporaries
_TABLE_CHUNK = 32
# numerator coefficients b_0 ... b_13 of the degree-13 Pade approximant of
# exp, and the 1-norm up to which it is accurate to double precision without
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


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


def rk4_step_coefficients(nodes: np.ndarray, mids: np.ndarray, h: float) -> tuple:
    """Coefficients of the RK4 propagators of K(lambda, t) - mu J as polynomials
    in mu and lambda, the table T with T[j][i] the coefficient of mu^j lambda^i.

    nodes and mids sample the lambda-power coefficients K_i(t) of
    K = sum_i lambda^i K_i at the step ends and midpoints, shape (L, N + 1, d, d)
    and (L, N, d, d), with J the standard d x d one.  Returns five arrays, one
    per power j of mu: T[j] has shape ((4 - j)(L - 1) + 1, N, d, d), and the
    propagator of step k at (lambda, mu) is sum_ij T[j][i, k] mu^j lambda^i.
    For L = 1 (K independent of lambda) T[j][0] is the mu^j coefficient.
    T[4] is one block, (h^4/24) I at every step, as (-J)^4 = I.

    The table is built _TABLE_CHUNK steps at a time into one preallocated
    array, so the stage arrays stay small.
    """
    L, N = nodes.shape[0], mids.shape[1]
    eye = np.eye(nodes.shape[-1])
    D = -standard_J(nodes.shape[-1] // 2)
    sizes = [(4 - j) * (L - 1) + 1 for j in range(5)]
    T = np.split(np.empty((sum(sizes), N) + mids.shape[2:]), np.cumsum(sizes)[:-1])

    def times(X, c):  # (X - mu J) c, for c indexed [mu power, lambda power]
        out = np.zeros((c.shape[0] + 1, c.shape[1] + L - 1) + c.shape[2:])
        out[:-1, : c.shape[1]] = X[0] @ c
        for a in range(1, L):
            out[:-1, a : a + c.shape[1]] += X[a] @ c
        out[1:, : c.shape[1]] += D @ c
        return out

    def one_plus(s, c):  # I + s c
        c = s * c
        c[0, 0] += eye
        return c

    for s in range(0, N, _TABLE_CHUNK):
        nd, md = nodes[:, s : s + _TABLE_CHUNK + 1], mids[:, s : s + _TABLE_CHUNK]
        A = np.zeros((2,) + md.shape)
        A[0], A[1, 0] = nd[:, :-1], D
        C = np.zeros((5, 4 * L - 3) + md.shape[1:])
        C[:2, :L] = A
        K = times(md, one_plus(0.5 * h, A))
        C[:3, : 2 * L - 1] += 2.0 * K
        K = times(md, one_plus(0.5 * h, K))
        C[:4, : 3 * L - 2] += 2.0 * K
        C += times(nd[:, 1:], one_plus(h, K))
        C *= h / 6.0
        C[0, 0] += eye
        for j in range(5):
            T[j][:, s : s + _TABLE_CHUNK] = C[j, : sizes[j]]
    return tuple(T)


def paired_steps(C: np.ndarray) -> np.ndarray:
    """Coefficients in mu of the products P_{2k+1}(mu) P_{2k}(mu) of
    consecutive steps, from the steps' coefficients C, shape (5, N, d, d):
    out[c, k] = sum_{a+b=c} C[a, 2k+1] @ C[b, 2k], shape
    (9, ceil(N / 2), d, d).  An odd last step is kept alone, with its
    coefficients above degree 4 zero.

    C[4] is s I at every step, as rk4_step_coefficients builds it, so each
    product with it is taken as a scalar multiple: the values of the matrix
    product, and the same bits once added to out, each out[c] taking its
    terms in ascending a as the defining sum does.
    """
    M = C.shape[1] // 2
    odd, even = C[:, 1 : 2 * M : 2], C[:, 0 : 2 * M : 2]
    s = C[4, 0, 0, 0]
    out = np.zeros((9, C.shape[1] - M) + C.shape[2:])
    for a in range(4):
        out[a : a + 4, :M] += odd[a] @ even[:4]
        out[a + 4, :M] += s * odd[a]
    out[4:, :M] += s * even
    out[:5, M:] = C[:, 2 * M :]
    return out


def rk4_steps_at(C: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The step propagators sum_j C[j] mu^j for each mu, shape (m, N, d, d),
    as one matrix product of the (m, J) mu-powers with C.

    numpy multiplies a single row as a matrix-vector product, which rounds
    apart from the same row in a longer batch, so one mu is evaluated as a
    batch of two and every row comes out as in any batch.
    """
    mus = np.asarray(mus, dtype=float)
    powers = (mus.repeat(2) if len(mus) == 1 else mus)[:, None] ** np.arange(C.shape[0])
    return (powers @ C.reshape(C.shape[0], -1))[: len(mus)].reshape((len(mus),) + C.shape[1:])


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


def expm_stack(A: np.ndarray) -> np.ndarray:
    """exp(A[i]) for each matrix of a stack A, shape (m, d, d), by scaling and
    squaring with the degree-13 Pade approximant.

    Matrix i is scaled by 2^-s_i, s_i = max(0, ceil(log2(||A_i||_1 / theta_13))),
    taken from frexp so that it is exact.  U and V are formed for the whole
    stack, exp = (V - U)^-1 (V + U) by one batched solve, and squaring round k
    squares only the matrices with s_i > k, so no matrix depends on the others.
    """
    A = np.asarray(A, dtype=float)
    mant, e = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(e - (mant == 0.5), 0)
    A = np.ldexp(A, -s[:, None, None])
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    X = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        X[sq] = X[sq] @ X[sq]
    return X
