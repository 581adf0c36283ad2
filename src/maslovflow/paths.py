"""Analytic descriptors of paths of Lagrangian subspaces.

Every path maps the parameter interval [0, 1] to Lagrangian frames and can
be evaluated at arbitrary parameter values, which is what the adaptive
crossing and eigenvalue machinery needs.  Each class but the constant path,
whose frames are read-only views of its one frame, has one evaluator,
`_frames_at`, that turns an array of parameter values into a checked stack
of frames: unitary-diagonal paths in closed form; rotated paths, the one
class that applies exp(theta J), to a fixed frame or a path, by a constant
or piecewise-linear angle, in closed form on the frames of the path inside;
reversed, reparametrized and concatenated paths by mapping the array onto
the paths inside them; and acted-on paths likewise, with an action that
maps the whole array to a stack of symplectic matrices in one call
(`PolynomialAction` with one `expm` call, the transported, frozen-time and
alpha/beta paths of hamiltonian.py through fundamental solutions on lambda
or time arrays).  `frames(lams)` evaluates the values it has not seen in
one such call and keeps every frame in the path's one cache: the parameter
values seen, sorted, and their frames as one read-only stack (m, 2n, n),
so a cached frame costs its data and its key (24 B at n = 1, 72 B at
n = 2).  A batch with new values appends them and sorts them in with one
stable argsort, in time linear in the cache; `frame(lam)` returns a
read-only copy of one row.  The adaptive sample grid refines level by
level, one batch of midpoint frames per level, and decides each interval's
gap from the n x n overlap of its end frames, with an SVD only where that
bound leaves it open.  Paths are immutable once built.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .symplectic import (
    LagrangianFrame,
    gap_distance,
    gaps_exceed,
    lagrangian_frames,
    nearest_lagrangian_frames,
    reported_norm,
    rotation_matrix,
    souriau,
    standard_J,
    within_each,
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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("breakpoints must be finite numbers")
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


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ...: the rows of x and y interleaved, so that
    the two halves of each interval follow one another."""
    out = np.empty((2 * len(x), *x.shape[1:]), dtype=np.result_type(x, y))
    out[0::2], out[1::2] = x, y
    return out


def _finite(lams: np.ndarray) -> np.ndarray:
    """lams, unless one is not finite: ValueError naming the first such."""
    if not np.isfinite(lams).all():
        raise ValueError(f"path evaluated at a non-finite lambda {lams[~np.isfinite(lams)][0]}")
    return lams


class LagrangianPath:
    """Base class: a continuous family lambda -> L(lambda) of Lagrangian subspaces.

    A subclass defines `_frames_at`.
    """

    def __init__(self, n: int):
        standard_J(n)  # the ValueError for an n that is not a positive integer
        self.n = n
        # the cache: every lambda evaluated so far, sorted, and its frames
        self._keys = np.empty(0)
        self._cache = np.empty((0, 2 * n, n))
        self._grid = None

    def _frames_at(self, lams: np.ndarray) -> np.ndarray:
        """Checked frames at distinct new lambdas, stacked (m, 2n, n)."""
        raise NotImplementedError

    def _cached(self) -> np.ndarray:
        """The lambdas whose frames are cached, sorted."""
        return self._keys

    def frames(self, lams) -> np.ndarray:
        """The frames at each lambda, stacked (m, 2n, n), gathered from the
        cache.  The distinct lambdas not seen before (-0.0 and 0.0 are one)
        are evaluated together, in one call of _frames_at in the order first
        seen, appended to the cache and sorted in with one stable argsort:
        time linear in the cache per batch of misses.  A non-finite miss
        raises ValueError naming it, and caches nothing."""
        lams = np.asarray(lams, dtype=float).ravel()
        rows = self._keys.searchsorted(lams)
        miss = self._keys.take(rows, mode="clip") != lams if self._keys.size else np.ones(lams.size, bool)
        if miss.any():
            _, first = np.unique(lams[miss], return_index=True)
            new = _finite(lams[miss][np.sort(first)])
            keys = np.concatenate([self._keys, new])
            order = keys.argsort(kind="stable")
            keys = keys[order]
            got = self._frames_at(new)  # first, so a failed evaluation caches nothing
            self._keys, self._cache = keys, np.concatenate([self._cache, got])[order]
            self._keys.setflags(write=False)
            self._cache.setflags(write=False)
            rows = self._keys.searchsorted(lams)
        return self._cache[rows]

    def frame(self, lam: float) -> LagrangianFrame:
        """The frame at one lambda, a read-only copy of its cache row, so a
        held frame does not keep a replaced cache alive: one lookup through
        frames."""
        F = self.frames([float(lam)])[0]
        F.setflags(write=False)
        return LagrangianFrame._checked(self.n, F)

    def souriau_matrix(self, lam: float) -> np.ndarray:
        """The Souriau matrix W(lambda) as a plain complex array."""
        return souriau(self.frame(lam)).W

    def breakpoint_hints(self) -> tuple:
        """Parameter values where the descriptor may lose smoothness."""
        return (0.0, 1.0)

    @property
    def sample_grid(self) -> np.ndarray:
        """Adaptive grid on [0, 1] with consecutive gap distances <= 0.1.

        Every interval above the bound is halved, all of one level together.
        The open intervals are carried, in order, with their end frames, so
        a level evaluates one batch of frames at its midpoints and decides
        both halves of each interval with one gaps_exceed.  The grid is the
        initial nodes and every midpoint, sorted.
        """
        if self._grid is None:
            nodes = np.array(sorted(set(np.linspace(0.0, 1.0, 9)) | set(self.breakpoint_hints())))
            F = self.frames(nodes)
            a, b, Fa, Fb = nodes[:-1], nodes[1:], F[:-1], F[1:]
            found = [nodes]
            for _ in range(_GRID_DEPTH):
                wide = gaps_exceed(Fa, Fb, GRID_GAP)
                if not wide.any():
                    break
                a, b, Fa, Fb = a[wide], b[wide], Fa[wide], Fb[wide]
                m = 0.5 * (a + b)
                Fm = self.frames(m)
                found.append(m)
                a, b, Fa, Fb = _interleave(a, m), _interleave(m, b), _interleave(Fa, Fm), _interleave(Fm, Fb)
            else:
                raise RuntimeError("sample grid did not reach the gap bound 0.1")
            self._grid = np.sort(np.concatenate(found))
        return self._grid

    def reversed(self) -> "LagrangianPath":
        return ReversedPath(self)


class ConstantPath(LagrangianPath):
    """The constant path at a fixed Lagrangian subspace."""

    def __init__(self, frame: LagrangianFrame):
        super().__init__(frame.n)
        self.base = frame

    def frames(self, lams) -> np.ndarray:
        lams = _finite(np.asarray(lams, dtype=float).ravel())
        return np.broadcast_to(self.base.F, (lams.size, 2 * self.n, self.n))

    def frame(self, lam: float) -> LagrangianFrame:
        _finite(np.array([lam], dtype=float))
        return self.base


class RotatedPath(LagrangianPath):
    """lambda -> exp(theta(lambda) J) base(lambda), the rotation of a fixed
    frame or of a path by a constant or piecewise-linear angle.

    A frame is the constant path at it, and a number the constant angle.  A
    rotation is orthogonal, so its frames need no projection.
    """

    def __init__(self, base, theta):
        if isinstance(base, LagrangianFrame):
            base = ConstantPath(base)
        if not isinstance(theta, PiecewiseLinear):
            theta = PiecewiseLinear.constant(theta)
        super().__init__(base.n)
        self.base = base
        self.theta = theta

    def _frames_at(self, lams):
        return lagrangian_frames(rotation_matrix(self.n, self.theta(lams)) @ self.base.frames(lams))

    def breakpoint_hints(self):
        return tuple(sorted(set(self.base.breakpoint_hints()) | set(self.theta.breakpoints())))


class UnitaryDiagonalPath(LagrangianPath):
    """lambda -> diag(e^{i theta_1}, ..., e^{i theta_n}) (R^n x {0})."""

    def __init__(self, phases):
        phases = list(phases)
        super().__init__(len(phases))
        self.phases = phases

    def _frames_at(self, lams):
        n = self.n
        theta = np.stack([p(lams) for p in self.phases], axis=1)
        F = np.zeros((lams.size, 2 * n, n))
        j = np.arange(n)
        F[:, j, j] = np.cos(theta)
        F[:, n + j, j] = np.sin(theta)
        return lagrangian_frames(F)

    def breakpoint_hints(self):
        pts = set()
        for p in self.phases:
            pts.update(p.breakpoints())
        return tuple(sorted(pts))


class SymplecticActionPath(LagrangianPath):
    """lambda -> A(lambda) . base(lambda) for a family of symplectic matrices.

    The base may be a fixed frame or another path.  The action A maps a 1-D
    array of m lambdas to the stack (m, 2n, 2n) of its matrices there; it is
    called once per batch of new lambdas, and every matrix is checked.  The
    frames are the polar projections of the bases A F, F the base frames.
    """

    def __init__(self, matfun, base, hints=()):
        if isinstance(base, LagrangianFrame):
            base = ConstantPath(base)
        super().__init__(base.n)
        self.matfun = matfun
        self.base = base
        self._hints = tuple(hints)
        self._J = standard_J(self.n)

    def _frames_at(self, lams):
        A = np.asarray(self.matfun(lams), dtype=float)
        shape = (lams.size, 2 * self.n, 2 * self.n)
        if A.shape != shape:
            raise ValueError(
                f"action must map {lams.size} lambdas to a stack (m, 2n, 2n) = {shape}, got {A.shape}"
            )
        dev = np.swapaxes(A, 1, 2) @ self._J @ A - self._J
        ok = within_each(dev, _ACTION_ATOL)
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(
                f"action matrix at lambda={lams[k]:.6g} is not symplectic (deviation {reported_norm(dev[k]):.3e})"
            )
        return nearest_lagrangian_frames(A @ self.base.frames(lams))

    def breakpoint_hints(self):
        return tuple(sorted(set(self.base.breakpoint_hints()) | set(self._hints) | {0.0, 1.0}))


class PolynomialAction:
    """The family lambda -> expm(J G(lambda)) for the symmetric polynomial
    G(lambda) = sum_k gens[k] lambda^k, an action for SymplecticActionPath.

    Called on an array of lambdas, it gives their matrices with one expm call.
    """

    def __init__(self, gens):
        self.gens = gens
        self._J = standard_J(len(gens[0]) // 2)

    def __call__(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=float)[:, None, None]
        G = sum(g * lams**k for k, g in enumerate(self.gens))
        return scipy.linalg.expm(self._J @ G)


class ReversedPath(LagrangianPath):
    """The same subspaces traversed backwards: lambda -> gamma(1 - lambda)."""

    def __init__(self, path: LagrangianPath):
        super().__init__(path.n)
        self.path = path

    def _frames_at(self, lams):
        return self.path.frames(1.0 - lams)

    def breakpoint_hints(self):
        return tuple(sorted(1.0 - x for x in self.path.breakpoint_hints()))


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

    def _frames_at(self, lams):
        return self.path.frames(self.phi(lams))

    def breakpoint_hints(self):
        inner = np.interp(self.path.breakpoint_hints(), self.phi.ys, self.phi.xs)
        return tuple(sorted(set(self.phi.breakpoints()) | set(np.atleast_1d(inner))))


class ConcatPath(LagrangianPath):
    """Concatenation of paths, each piece traversed on an equal subinterval.

    Consecutive pieces must match at the junctions (gap distance <= 1e-8).
    A lambda below 0 maps into the first piece, one above 1 into the last.
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

    def _frames_at(self, lams):
        k = len(self.pieces)
        idx = np.clip(np.floor(lams * k).astype(int), 0, k - 1)
        s = lams * k - idx
        out = np.empty((lams.size, 2 * self.n, self.n))
        for i, piece in enumerate(self.pieces):
            mine = idx == i
            if mine.any():
                out[mine] = piece.frames(s[mine])
        return out

    def breakpoint_hints(self):
        k = len(self.pieces)
        pts = set()
        for i, p in enumerate(self.pieces):
            pts.update((i + x) / k for x in p.breakpoint_hints())
            pts.add(i / k)
        pts.add(1.0)
        return tuple(sorted(pts))


def gamma_nor(n: int) -> LagrangianPath:
    """The closed reference path at R^n x {0} with winding index one.

    gamma(lambda) = R(cos(pi lambda) e_1 + sin(pi lambda) e_{n+1}) + sum_j R e_j.
    """
    standard_J(n)  # the ValueError for an n that is not a positive integer
    phases = [PiecewiseLinear.linear(0.0, np.pi)]
    phases += [PiecewiseLinear.constant(0.0) for _ in range(n - 1)]
    return UnitaryDiagonalPath(phases)


def gamma_nor_prime(n: int) -> LagrangianPath:
    """The closed reference path at {0} x R^n with winding index one.

    gamma(lambda) = R(sin(pi lambda) e_1 - cos(pi lambda) e_{n+1}) + sum_j R e_{n+j}.
    """
    standard_J(n)  # the ValueError for an n that is not a positive integer
    phases = [PiecewiseLinear.linear(-np.pi / 2, np.pi / 2)]
    phases += [PiecewiseLinear.constant(np.pi / 2) for _ in range(n - 1)]
    return UnitaryDiagonalPath(phases)
