"""Spans around the program's public layer boundaries, installed from outside.

Wrappers are patched onto the program's classes and module globals; nothing
inside the program changes.  Spans (name, start, end, parent) are kept in
flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, metrics reported for it); ".s" is inclusive time of the
# outermost spans of that name, ".self_s" the time not covered by child spans.
LAYERS = (
    ("specflow.detector", ("calls", "mu_evals", "s")),
    ("specflow.spectrum_window", ("calls", "self_s")),
    ("specflow.spectral_flow", ("calls", "self_s")),
    ("hamiltonian.fundamental_solution", ("calls", "s")),
    ("maslov.maslov_pair", ("calls", "self_s")),
    ("maslov.perturbation_theta", ("calls", "self_s")),
    ("paths.frame", ("calls", "self_s")),
    ("paths.souriau_matrix", ("calls", "self_s")),
    ("paths.sample_grid", ("self_s",)),
    ("symplectic.validate", ("calls", "s")),
    ("symplectic.gap_distance", ("calls", "s")),
    ("families.eval", ("calls", "s")),
    ("linalg.expm", ("calls", "s")),
)
SPAN_NAMES = tuple(name for name, _ in LAYERS)
METRICS = tuple(f"{name}.{m}" for name, ms in LAYERS for m in ms)

# Boundaries each workload must cross (spans > 0), and those it must not.
REQUIRED = {
    "clm-hamiltonian": ("specflow.detector", "specflow.spectrum_window", "specflow.spectral_flow",
                        "hamiltonian.fundamental_solution", "maslov.maslov_pair", "families.eval"),
    "pair-axioms": ("maslov.maslov_pair", "maslov.perturbation_theta", "paths.frame",
                    "paths.souriau_matrix", "paths.sample_grid", "symplectic.validate",
                    "symplectic.gap_distance", "linalg.expm"),
    "spectra-sweep": ("specflow.detector", "specflow.spectrum_window", "families.eval", "linalg.expm"),
}
FORBIDDEN = {"pair-axioms": ("specflow.detector",)}


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.mu_evals = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, span: str, fn, count_mus: bool = False):
        nid = SPAN_NAMES.index(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            if count_mus:
                self.mu_evals += int(np.size(args[2] if len(args) > 2 else kwargs["mus"]))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _patch_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, span: str, fn, modules) -> None:
        """Replace fn wherever a module bound it by name."""
        wrapped = self._wrap(span, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, wrapped)

    def install(self) -> "Tracer":
        import scipy.linalg

        from maslovflow import families, hamiltonian, maslov, paths, specflow, symplectic

        mods = [m for k, m in sorted(sys.modules.items()) if k == "maslovflow" or k.startswith("maslovflow.")]
        bvf = specflow.BoundaryValueFamily
        self._patch_attr(bvf, "detector_batch", self._wrap("specflow.detector", bvf.detector_batch, True))
        self._patch_function("specflow.spectrum_window", specflow.spectrum_window, mods)
        self._patch_function("specflow.spectral_flow", specflow.spectral_flow, mods)
        self._patch_function("hamiltonian.fundamental_solution", hamiltonian.fundamental_solution, mods)
        self._patch_function("maslov.maslov_pair", maslov.maslov_pair, mods)
        self._patch_function("maslov.perturbation_theta", maslov.perturbation_theta, mods)
        self._patch_function("symplectic.gap_distance", symplectic.gap_distance, mods)
        self._patch_function("linalg.expm", scipy.linalg.expm, mods + [scipy.linalg])
        lp = paths.LagrangianPath
        self._patch_attr(lp, "frame", self._wrap("paths.frame", lp.frame))
        self._patch_attr(lp, "souriau_matrix", self._wrap("paths.souriau_matrix", lp.souriau_matrix))
        grid = lp.__dict__["sample_grid"]
        self._patch_attr(lp, "sample_grid", property(self._wrap("paths.sample_grid", grid.fget)))
        for cls in (symplectic.LagrangianFrame, symplectic.SouriauMatrix):
            self._patch_attr(cls, "__post_init__", self._wrap("symplectic.validate", cls.__post_init__))
        sf = families.SymmetricFamily
        self._patch_attr(sf, "__call__", self._wrap("families.eval", sf.__call__))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())

    def metrics(self) -> dict:
        return layer_metrics(**self.arrays(), mu_evals=self.mu_evals)


def span_cost(calls: int = 50000) -> float:
    """Seconds a wrapper adds to one call, from wrapping a no-op."""
    def plain():
        return None

    wrapped = Tracer()._wrap("paths.frame", plain)
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def layer_metrics(name, parent, start, end, mu_evals: int = 0) -> dict:
    """Per-layer counts and times from flat span arrays.

    Parents precede their children.  Self time is a span's duration minus the
    durations of its direct children (spans of one thread nest, so they do
    not overlap); inclusive time counts only the outermost span of each name,
    so recursion is not counted twice.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nspan = len(name)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nspan)
    self_time = dur - child
    names, parents = name.tolist(), parent.tolist()
    above = [0] * nspan  # bitmask of the span names among a span's ancestors
    for i, p in enumerate(parents):
        if p >= 0:
            above[i] = above[p] | (1 << names[p])
    outer = np.fromiter(((above[i] >> names[i]) & 1 == 0 for i in range(nspan)), dtype=bool, count=nspan)
    out = {}
    for nid, (span, metrics) in enumerate(LAYERS):
        mine = name == nid
        values = {
            "calls": int(np.count_nonzero(mine)),
            "mu_evals": int(mu_evals),
            "s": float(dur[mine & outer].sum()),
            "self_s": float(self_time[mine].sum()),
        }
        for m in metrics:
            out[f"{span}.{m}"] = values[m]
    return out


def span_counts(name) -> dict:
    """Number of spans per boundary name, also for names reported without calls."""
    counts = np.bincount(np.asarray(name, dtype=np.int64), minlength=len(SPAN_NAMES))
    return {span: int(c) for span, c in zip(SPAN_NAMES, counts)}


def coverage_errors(workload: str, counts: dict) -> list:
    errs = [f"no spans at {s} on {workload}" for s in REQUIRED[workload] if counts[s] == 0]
    errs += [f"{counts[s]} spans at {s} on {workload}, expected none"
             for s in FORBIDDEN.get(workload, ()) if counts[s]]
    return errs
