"""Analytic descriptors of paths of Lagrangian subspaces.

Every path maps the parameter interval [0, 1] to Lagrangian frames and can
be evaluated at arbitrary parameter values, which is what the adaptive
crossing and eigenvalue machinery needs.  Frames and Souriau matrices are
cached per parameter value; paths are immutable once built.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .symplectic import (
    LagrangianFrame,
    _orthonormal_columns,
    gap_distance,
    nearest_lagrangian_frame,
    norm2,
    rotation_matrix,
    souriau,
    standard_J,
    within,
)

GRID_GAP = 0.1
_GRID_DEPTH = 24
_JUNCTION_ATOL = 1e-8
# action matrices may carry integration drift; frames are re-projected below
_ACTION_ATOL = 1e-6


class PiecewiseLinear:
    """A piecewise-linear function on [0, 1] given by breakpoints."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("breakpoints must be two equal-length 1-d sequences")
        if abs(xs[0]) > 1e-15 or abs(xs[-1] - 1.0) > 1e-15:
            raise ValueError("breakpoint abscissae must start at 0 and end at 1")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        self.xs = xs
        self.ys = ys

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls([0.0, 1.0], [value, value])

    @classmethod
    def linear(cls, y0: float, y1: float) -> "PiecewiseLinear":
        return cls([0.0, 1.0], [y0, y1])

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def breakpoints(self):
        return tuple(self.xs)

    def serialize(self):
        return [[float(x), float(y)] for x, y in zip(self.xs, self.ys)]


class LagrangianPath:
    """Base class: a continuous family lambda -> L(lambda) of Lagrangian subspaces."""

    def __init__(self, n: int):
        self.n = n
        self._frames: dict[float, LagrangianFrame] = {}
        self._souriau: dict[float, np.ndarray] = {}
        self._grid = None

    def _frame_at(self, lam: float) -> LagrangianFrame:
        raise NotImplementedError

    def frame(self, lam: float) -> LagrangianFrame:
        lam = float(lam)
        got = self._frames.get(lam)
        if got is None:
            got = self._frame_at(lam)
            self._frames[lam] = got
        return got

    def souriau_matrix(self, lam: float) -> np.ndarray:
        """The Souriau matrix W(lambda) as a plain complex array."""
        lam = float(lam)
        got = self._souriau.get(lam)
        if got is None:
            got = souriau(self.frame(lam)).W
            self._souriau[lam] = got
        return got

    def breakpoint_hints(self) -> tuple:
        """Parameter values where the descriptor may lose smoothness."""
        return (0.0, 1.0)

    @property
    def sample_grid(self) -> np.ndarray:
        """Adaptive grid on [0, 1] with consecutive gap distances <= 0.1."""
        if self._grid is None:
            nodes = sorted(set(np.linspace(0.0, 1.0, 9)) | set(self.breakpoint_hints()))
            for _ in range(_GRID_DEPTH):
                refined, dirty = [nodes[0]], False
                for a, b in zip(nodes[:-1], nodes[1:]):
                    if gap_distance(self.frame(a), self.frame(b)) > GRID_GAP:
                        refined.append(0.5 * (a + b))
                        dirty = True
                    refined.append(b)
                nodes = refined
                if not dirty:
                    break
            else:
                raise RuntimeError("sample grid did not reach the gap bound 0.1")
            self._grid = np.asarray(nodes)
        return self._grid

    def reversed(self) -> "LagrangianPath":
        return ReversedPath(self)

    def descriptor(self) -> dict:
        raise ValueError(f"{type(self).__name__} has no serializable descriptor")


class ConstantPath(LagrangianPath):
    """The constant path at a fixed Lagrangian subspace."""

    def __init__(self, frame: LagrangianFrame):
        super().__init__(frame.n)
        self.base = frame

    def _frame_at(self, lam):
        return self.base

    def descriptor(self):
        return {"type": "constant", "frame": self.base.F.tolist()}


class RotationPath(LagrangianPath):
    """lambda -> exp(theta(lambda) J) L0 for a piecewise-linear angle function."""

    def __init__(self, base: LagrangianFrame, theta: PiecewiseLinear):
        super().__init__(base.n)
        self.base = base
        self.theta = theta

    def _frame_at(self, lam):
        R = rotation_matrix(self.n, float(self.theta(lam)))
        return LagrangianFrame(self.n, R @ self.base.F)

    def breakpoint_hints(self):
        return self.theta.breakpoints()

    def descriptor(self):
        return {
            "type": "rotation",
            "theta": self.theta.serialize(),
            "frame": self.base.F.tolist(),
        }


class UnitaryDiagonalPath(LagrangianPath):
    """lambda -> diag(e^{i theta_1}, ..., e^{i theta_n}) (R^n x {0})."""

    def __init__(self, phases):
        phases = list(phases)
        super().__init__(len(phases))
        self.phases = phases

    def _frame_at(self, lam):
        theta = np.array([float(p(lam)) for p in self.phases])
        F = np.vstack([np.diag(np.cos(theta)), np.diag(np.sin(theta))])
        return LagrangianFrame(self.n, F)

    def breakpoint_hints(self):
        pts = set()
        for p in self.phases:
            pts.update(p.breakpoints())
        return tuple(sorted(pts))

    def descriptor(self):
        return {"type": "unitary_diagonal", "phases": [p.serialize() for p in self.phases]}


class SymplecticActionPath(LagrangianPath):
    """lambda -> A(lambda) . base(lambda) for a family of symplectic matrices.

    The base may be a fixed frame or another path; A is any callable returning
    a symplectic 2n x 2n matrix (checked at every evaluation).
    """

    def __init__(self, matfun, base, hints=(), payload=None):
        if isinstance(base, LagrangianFrame):
            base = ConstantPath(base)
        super().__init__(base.n)
        self.matfun = matfun
        self.base = base
        self._hints = tuple(hints)
        self._payload = payload
        self._J = standard_J(self.n)

    def _frame_at(self, lam):
        A = np.asarray(self.matfun(lam), dtype=float)
        dev = A.T @ self._J @ A - self._J
        if not within(dev, _ACTION_ATOL):
            raise ValueError(
                f"action matrix at lambda={lam:.6g} is not symplectic (deviation {norm2(dev):.3e})"
            )
        return nearest_lagrangian_frame(_orthonormal_columns(A @ self.base.frame(lam).F))

    def breakpoint_hints(self):
        return tuple(sorted(set(self.base.breakpoint_hints()) | set(self._hints) | {0.0, 1.0}))

    def descriptor(self):
        if self._payload is None:
            raise ValueError("symplectic action path built from a bare callable; not serializable")
        return dict(self._payload)


def polynomial_action(gens):
    """lambda -> expm(J G(lambda)) for the symmetric polynomial
    G(lambda) = sum_k gens[k] lambda^k, a matrix family for SymplecticActionPath."""
    J = standard_J(len(gens[0]) // 2)

    def fn(lam):
        G = sum(gens[k] * lam**k for k in range(len(gens)))
        return scipy.linalg.expm(J @ G)

    return fn


class RotatedPath(LagrangianPath):
    """The pointwise rotation exp(theta J) applied to an existing path."""

    def __init__(self, path: LagrangianPath, theta: float):
        super().__init__(path.n)
        self.path = path
        self.theta = float(theta)
        self._R = rotation_matrix(path.n, self.theta)

    def _frame_at(self, lam):
        return LagrangianFrame(self.n, self._R @ self.path.frame(lam).F)

    def breakpoint_hints(self):
        return self.path.breakpoint_hints()

    def descriptor(self):
        return {"type": "rotated", "angle": self.theta, "path": self.path.descriptor()}


class ReversedPath(LagrangianPath):
    """The same subspaces traversed backwards: lambda -> gamma(1 - lambda)."""

    def __init__(self, path: LagrangianPath):
        super().__init__(path.n)
        self.path = path

    def _frame_at(self, lam):
        return self.path.frame(1.0 - lam)

    def breakpoint_hints(self):
        return tuple(sorted(1.0 - x for x in self.path.breakpoint_hints()))

    def descriptor(self):
        return {"type": "reversed", "path": self.path.descriptor()}


class ReparametrizedPath(LagrangianPath):
    """gamma composed with a strictly increasing map of [0, 1] onto itself."""

    def __init__(self, path: LagrangianPath, phi: PiecewiseLinear):
        if abs(phi(0.0)) > 1e-12 or abs(phi(1.0) - 1.0) > 1e-12:
            raise ValueError("reparametrization must fix the endpoints 0 and 1")
        if np.any(np.diff(phi.ys) <= 0):
            raise ValueError("reparametrization must be strictly increasing")
        super().__init__(path.n)
        self.path = path
        self.phi = phi

    def _frame_at(self, lam):
        return self.path.frame(float(self.phi(lam)))

    def breakpoint_hints(self):
        inner = np.interp(self.path.breakpoint_hints(), self.phi.ys, self.phi.xs)
        return tuple(sorted(set(self.phi.breakpoints()) | set(np.atleast_1d(inner))))

    def descriptor(self):
        return {
            "type": "reparametrized",
            "phi": self.phi.serialize(),
            "path": self.path.descriptor(),
        }


class ConcatPath(LagrangianPath):
    """Concatenation of paths, each piece traversed on an equal subinterval.

    Consecutive pieces must match at the junctions (gap distance <= 1e-8).
    """

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("concatenation needs at least one piece")
        n = pieces[0].n
        if any(p.n != n for p in pieces):
            raise ValueError("all pieces must share the half-dimension n")
        for i, (p, q) in enumerate(zip(pieces[:-1], pieces[1:])):
            gap = gap_distance(p.frame(1.0), q.frame(0.0))
            if gap > _JUNCTION_ATOL:
                raise ValueError(f"junction {i} mismatch: gap distance {gap:.3e}")
        super().__init__(n)
        self.pieces = pieces

    def _locate(self, lam):
        k = len(self.pieces)
        idx = min(int(np.floor(lam * k)), k - 1)
        return idx, lam * k - idx

    def _frame_at(self, lam):
        idx, s = self._locate(lam)
        return self.pieces[idx].frame(s)

    def breakpoint_hints(self):
        k = len(self.pieces)
        pts = set()
        for i, p in enumerate(self.pieces):
            pts.update((i + x) / k for x in p.breakpoint_hints())
            pts.add(i / k)
        pts.add(1.0)
        return tuple(sorted(pts))

    def descriptor(self):
        return {"type": "concat", "pieces": [p.descriptor() for p in self.pieces]}


def gamma_nor(n: int) -> LagrangianPath:
    """The closed reference path at R^n x {0} with winding index one.

    gamma(lambda) = R(cos(pi lambda) e_1 + sin(pi lambda) e_{n+1}) + sum_j R e_j.
    """
    phases = [PiecewiseLinear.linear(0.0, np.pi)]
    phases += [PiecewiseLinear.constant(0.0) for _ in range(n - 1)]
    return UnitaryDiagonalPath(phases)


def gamma_nor_prime(n: int) -> LagrangianPath:
    """The closed reference path at {0} x R^n with winding index one.

    gamma(lambda) = R(sin(pi lambda) e_1 - cos(pi lambda) e_{n+1}) + sum_j R e_{n+j}.
    """
    phases = [PiecewiseLinear.linear(-np.pi / 2, np.pi / 2)]
    phases += [PiecewiseLinear.constant(np.pi / 2) for _ in range(n - 1)]
    return UnitaryDiagonalPath(phases)
