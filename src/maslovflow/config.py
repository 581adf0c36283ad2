"""JSON problem configuration: parsing, validation and round-trip serialization.

Matrices are row-major nested arrays, angles are radians.  Path descriptors
mirror the path classes; see README for the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .families import SymmetricFamily
from .maslov import DEFAULT_TOL
from .paths import (
    ConcatPath,
    ConstantPath,
    LagrangianPath,
    PiecewiseLinear,
    PolynomialAction,
    ReparametrizedPath,
    ReversedPath,
    RotatedPath,
    RotationPath,
    SymplecticActionPath,
    UnitaryDiagonalPath,
    gamma_nor,
    gamma_nor_prime,
)
from .specflow import DEFAULT_STEPS, MAX_DEPTH
from .symplectic import LagrangianFrame, frame_from_basis, l0_frame, l1_frame, norm2


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def _expect(cond, where, msg):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def check_int(x, where: str, lo: int) -> int:
    """An integer setting >= lo, from a flag or a config file."""
    _expect(_is_int(x) and x >= lo, where, f"must be an integer >= {lo}, got {x!r}")
    return x


def _check_solver(name: str, value, where: str):
    """The solver setting `name` (a SolverSettings field), checked and
    normalised; the ConfigError names `where`, a config field or a flag."""
    if name == "steps":
        return check_int(value, where, 16)
    if name == "max_depth":
        return check_int(value, where, 0)
    if name == "tol":
        _expect(_is_real(value) and value > 0, where, f"must be a positive number, got {value!r}")
        return float(value)
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2
        and all(_is_real(x) for x in value) and value[0] < value[1],
        where,
        f"must be [mu_min, mu_max] with mu_min < mu_max, got {value!r}",
    )
    return (float(value[0]), float(value[1]))


@dataclass(frozen=True)
class SolverSettings:
    """Solver settings of a problem; every way of setting them (the library
    defaults, a config file, a CLI override through dataclasses.replace)
    passes the same check, which raises ConfigError naming the field; the
    CLI checks an override first, so that the error names its flag."""

    steps: int = DEFAULT_STEPS
    tol: float = DEFAULT_TOL
    max_depth: int = MAX_DEPTH
    mu_window: tuple = (-np.pi + 0.1, np.pi - 0.1)

    def __post_init__(self):
        for f in fields(self):
            value = _check_solver(f.name, getattr(self, f.name), f"solver.{f.name}")
            object.__setattr__(self, f.name, value)

    def to_dict(self):
        return {
            "steps": self.steps,
            "tol": self.tol,
            "max_depth": self.max_depth,
            "mu_window": list(self.mu_window),
        }


def _parse_frame(spec, n: int, where: str) -> LagrangianFrame:
    if isinstance(spec, str):
        if spec == "l0":
            return l0_frame(n)
        if spec == "l1":
            return l1_frame(n)
        raise ConfigError(f"{where}: unknown frame shorthand {spec!r} (use 'l0' or 'l1')")
    try:
        return frame_from_basis(np.asarray(spec, dtype=float))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _parse_pl(spec, where: str) -> PiecewiseLinear:
    try:
        pts = np.asarray(spec, dtype=float)
        _expect(pts.ndim == 2 and pts.shape[1] == 2, where, "expected [[lambda, value], ...]")
        return PiecewiseLinear(pts[:, 0], pts[:, 1])
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"{where}: {err}") from err


def build_path(desc, n: int, where: str = "path") -> LagrangianPath:
    """Construct a path from its JSON descriptor."""
    _expect(isinstance(desc, dict), where, "descriptor must be an object")
    kind = desc.get("type")
    _expect(isinstance(kind, str), where, "missing 'type'")
    if kind == "normalization":
        which = desc.get("which")
        if which == "gamma_nor":
            return gamma_nor(n)
        if which == "gamma_nor_prime":
            return gamma_nor_prime(n)
        raise ConfigError(f"{where}.which: expected 'gamma_nor' or 'gamma_nor_prime'")
    if kind == "constant":
        return ConstantPath(_parse_frame(desc.get("frame"), n, f"{where}.frame"))
    if kind == "rotation":
        theta = _parse_pl(desc.get("theta"), f"{where}.theta")
        base = _parse_frame(desc.get("frame"), n, f"{where}.frame")
        return RotationPath(base, theta)
    if kind == "unitary_diagonal":
        phases = desc.get("phases")
        _expect(isinstance(phases, list) and len(phases) == n, f"{where}.phases",
                f"expected {n} phase functions")
        return UnitaryDiagonalPath(
            [_parse_pl(p, f"{where}.phases[{i}]") for i, p in enumerate(phases)]
        )
    if kind == "symplectic_action":
        gens = np.asarray(desc.get("generator"), dtype=float)
        _expect(
            gens.ndim == 3 and gens.shape[1:] == (2 * n, 2 * n),
            f"{where}.generator",
            f"expected a list of {2 * n} x {2 * n} symmetric matrices",
        )
        _expect(np.isfinite(gens).all(), f"{where}.generator", "entries must be finite numbers")
        sym_err = max(norm2(G - G.T) for G in gens)
        _expect(sym_err <= 1e-12, f"{where}.generator", "matrices must be symmetric")
        base_desc = desc.get("base")
        if isinstance(base_desc, dict):
            base = build_path(base_desc, n, f"{where}.base")
        else:
            base = _parse_frame(base_desc, n, f"{where}.base")
        return SymplecticActionPath(PolynomialAction(gens), base)
    if kind == "concat":
        pieces = desc.get("pieces")
        _expect(isinstance(pieces, list) and pieces, f"{where}.pieces", "expected a nonempty list")
        try:
            return ConcatPath(
                [build_path(p, n, f"{where}.pieces[{i}]") for i, p in enumerate(pieces)]
            )
        except ValueError as err:
            raise ConfigError(f"{where}.pieces: {err}") from err
    if kind == "reversed":
        return ReversedPath(build_path(desc.get("path"), n, f"{where}.path"))
    if kind == "rotated":
        angle = desc.get("angle")
        _expect(_is_real(angle), f"{where}.angle", f"expected a finite number, got {angle!r}")
        return RotatedPath(build_path(desc.get("path"), n, f"{where}.path"), float(angle))
    if kind == "reparametrized":
        phi = _parse_pl(desc.get("phi"), f"{where}.phi")
        try:
            return ReparametrizedPath(build_path(desc.get("path"), n, f"{where}.path"), phi)
        except ValueError as err:
            raise ConfigError(f"{where}.phi: {err}") from err
    raise ConfigError(f"{where}.type: unknown descriptor type {kind!r}")


@dataclass
class ProblemConfig:
    """Parsed problem description driving the CLI commands."""

    n: int
    gamma1_desc: dict | None = None
    gamma2_desc: dict | None = None
    family: SymmetricFamily | None = None
    alpha: PiecewiseLinear | None = None
    beta: PiecewiseLinear | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    seed: int = 0
    lambda_grid: int = 101
    suite: dict = field(default_factory=dict)

    def path1(self) -> LagrangianPath:
        _expect(self.gamma1_desc is not None, "gamma1", "missing path descriptor")
        return build_path(self.gamma1_desc, self.n, "gamma1")

    def path2(self) -> LagrangianPath:
        _expect(self.gamma2_desc is not None, "gamma2", "missing path descriptor")
        return build_path(self.gamma2_desc, self.n, "gamma2")

    def to_dict(self) -> dict:
        out = {"n": self.n, "solver": self.solver.to_dict(), "seed": self.seed,
               "lambda_grid": self.lambda_grid}
        if self.gamma1_desc is not None:
            out["gamma1"] = self.gamma1_desc
        if self.gamma2_desc is not None:
            out["gamma2"] = self.gamma2_desc
        if self.family is not None:
            out["family"] = self.family.serialize()
        if self.alpha is not None:
            out["alpha"] = self.alpha.serialize()
        if self.beta is not None:
            out["beta"] = self.beta.serialize()
        if self.suite:
            out["suite"] = self.suite
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_config(data) -> ProblemConfig:
    """Build a ProblemConfig from a dict, a JSON string or a file path."""
    if isinstance(data, (str, Path)):
        if isinstance(data, Path) or not str(data).lstrip().startswith("{"):
            try:
                text = Path(data).read_text()
            except OSError as err:
                raise ConfigError(f"cannot read config file {data}: {err}") from err
        else:
            text = str(data)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from err
    _expect(isinstance(data, dict), "config", "top level must be an object")

    n = check_int(data.get("n"), "n", 1)

    solver_in = data.get("solver", {})
    _expect(isinstance(solver_in, dict), "solver", "must be an object")
    solver = SolverSettings(**{f.name: solver_in[f.name] for f in fields(SolverSettings)
                               if f.name in solver_in})

    family = None
    if "family" in data and data["family"] is not None:
        try:
            family = SymmetricFamily.deserialize(data["family"])
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"family: {err}") from err
        _expect(family.n == n, "family", f"matrix size {2 * family.n} does not match n={n}")
        # the test the symplectic_action generators pass: SymmetricFamily
        # mirrors upper triangles, which would hide a wrong lower one
        coeffs = np.asarray(data["family"]["coefficients"], dtype=float)
        sym_err = float(np.max(norm2(coeffs - np.swapaxes(coeffs, -1, -2))))
        _expect(sym_err <= 1e-12, "family.coefficients", "matrices must be symmetric")

    alpha = _parse_pl(data["alpha"], "alpha") if data.get("alpha") is not None else None
    beta = _parse_pl(data["beta"], "beta") if data.get("beta") is not None else None

    suite = data.get("suite", {})
    _expect(isinstance(suite, dict), "suite", "must be an object")
    if "count" in suite:
        check_int(suite["count"], "suite.count", 1)

    lambda_grid = check_int(data.get("lambda_grid", 101), "lambda_grid", 2)

    cfg = ProblemConfig(
        n=n,
        gamma1_desc=data.get("gamma1"),
        gamma2_desc=data.get("gamma2"),
        family=family,
        alpha=alpha,
        beta=beta,
        solver=solver,
        seed=check_int(data.get("seed", 0), "seed", 0),
        lambda_grid=lambda_grid,
        suite=dict(suite),
    )
    # descriptors are validated eagerly so config errors surface before compute
    if cfg.gamma1_desc is not None:
        cfg.path1()
    if cfg.gamma2_desc is not None:
        cfg.path2()
    return cfg
