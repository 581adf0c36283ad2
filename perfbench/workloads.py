"""Seeded inputs of the three workloads, as problem configs in the documented
JSON schema, and the program calls and reference checks that go with them.

Each workload is a list of whole rounds; a round always holds the same kinds
of operation, so the share of failed operations does not depend on the seed
or on the run length.  Run as a script to print a stored input list:

    python3 perfbench/workloads.py --workload spectra-sweep --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json

import numpy as np

import references as ref

# Rounds per 30 s of --seconds.  At 30 the lists take about 50, 22 and 21 s
# on the reference machine (README): clm-hamiltonian gets the largest share
# because its triples cost 5-12 s each and a run must average over several.
ROUNDS_PER_30S = {"clm-hamiltonian": 2, "pair-axioms": 12, "spectra-sweep": 3}
# The walls family is the same on every seed: S = c lambda I, {0} x R^n at both
# ends, so its spectrum is k pi + c lambda.  At lambda = 1 the double eigenvalue
# 5 + 2 pi = 11.283 lies 0.017 inside the window edge 11.3, within one scan
# step, where spectrum_window misses it.
WALLS = {"c": 5.0, "n": 2, "window": [-11.3, 11.3], "lambda_grid": 11}
SPECTRA_N = 2
SPECTRA_GRID = 5


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(round(ROUNDS_PER_30S[workload] * seconds / 30.0)))


# Path kinds (0 rotation, 1 unitary diagonal, 2 symplectic action) of the k-th
# random pair of a list; with the stratified draws below, every run of a
# given length has the same mix of kinds, degrees, norms and window widths,
# so the seed moves the work little.
KIND_PAIRS = ((0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (0, 2))


def _strata(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """count draws from [lo, hi], one in each of count equal strata, in seeded order."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count


def _sym(rng, m: int) -> np.ndarray:
    A = rng.normal(size=(m, m))
    return np.triu(A) + np.triu(A, 1).T


def _lagrangian_basis(rng, n: int) -> list:
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(Z)
    return np.vstack([Q.real, Q.imag]).tolist()


# Every random path moves by the same amount: theta and each phase vary by a
# total of MOTION radians, and a generator G(lambda) = G1 lambda + G2 lambda^2
# has ||G1|| + ||G2|| = 0.9 * 2n.  The cost of counting crossings follows the
# motion of the paths, so this keeps it from swinging with the seed.
MOTION = 3.0


def _pl_values(rng, start_range: float) -> np.ndarray:
    """Three values with total variation MOTION, starting in [-start_range, start_range]."""
    split = rng.uniform()
    steps = MOTION * np.array([split, 1.0 - split]) * rng.choice([-1.0, 1.0], size=2)
    return rng.uniform(-start_range, start_range) + np.concatenate([[0.0], np.cumsum(steps)])


def _path(rng, n: int, kind: int) -> dict:
    if kind == 0:
        xs = [0.0, float(rng.uniform(0.3, 0.7)), 1.0]
        return {"type": "rotation", "theta": [[x, float(y)] for x, y in zip(xs, _pl_values(rng, 2.2))],
                "frame": _lagrangian_basis(rng, n)}
    if kind == 1:
        return {"type": "unitary_diagonal",
                "phases": [[[x, float(y)] for x, y in zip((0.0, 0.5, 1.0), _pl_values(rng, 2.5))]
                           for _ in range(n)]}
    return {"type": "symplectic_action", "generator": _generator(rng, n),
            "base": _lagrangian_basis(rng, n)}


def _generator(rng, n: int) -> list:
    """Quadratic symmetric G(lambda) with G(0) = 0, so the action starts at I."""
    G = [_sym(rng, 2 * n) for _ in range(2)]
    scale = 0.9 * 2 * n / sum(np.linalg.norm(M, 2) for M in G)
    return [np.zeros((2 * n, 2 * n)).tolist()] + [(scale * M).tolist() for M in G]


def _transversal_at_ends(d1: dict, d2: dict, n: int) -> bool:
    return all(ref.transversal(ref.frame(d1, n, e), ref.frame(d2, n, e)) for e in (0.0, 1.0))


def _random_pair(rng, n: int, kinds):
    while True:
        d1, d2 = _path(rng, n, kinds[0]), _path(rng, n, kinds[1])
        if _transversal_at_ends(d1, d2, n):
            return d1, d2


def _sampled_sup(coeffs: np.ndarray) -> float:
    grid = np.linspace(0.0, 1.0, 17)
    return max(
        float(np.max(np.linalg.norm(ref.family_at(coeffs, lam, grid), 2, axis=(1, 2)))) for lam in grid
    )


def _family(rng, n: int, deg_t: int, target: float, bound: str) -> list:
    """Random quadratic-in-lambda family scaled to a sup norm target.

    bound="sampled" scales the sup over a 17 x 17 grid, as SymmetricFamily
    does; bound="coefficients" scales the sum of coefficient norms, a true
    upper bound on the sup over [0, 1]^2.
    """
    C = np.array([[_sym(rng, 2 * n) for _ in range(deg_t + 1)] for _ in range(3)])
    if bound == "coefficients":
        norm = float(sum(np.linalg.norm(M, 2) for M in C.reshape(-1, 2 * n, 2 * n)))
    else:
        norm = _sampled_sup(C)
    return (C * (target / norm)).tolist()


def _config(n: int, g1: dict, g2: dict, coeffs=None, window=None, grid=None) -> dict:
    cfg = {"n": n, "gamma1": g1, "gamma2": g2, "solver": {"steps": 256}}
    if coeffs is not None:
        cfg["family"] = {"coefficients": coeffs}
    if window is not None:
        cfg["solver"]["mu_window"] = [float(window[0]), float(window[1])]
    if grid is not None:
        cfg["lambda_grid"] = grid
    return cfg


NOR = {"type": "normalization", "which": "gamma_nor"}
NOR_PRIME = {"type": "normalization", "which": "gamma_nor_prime"}
L0 = {"type": "constant", "frame": "l0"}
L1 = {"type": "constant", "frame": "l1"}


# ---------------------------------------------------------------- clm-hamiltonian


def clm_inputs(seed: int, rounds: int) -> list:
    """Per round: one anchor with a known nonzero index, n alternating between
    rounds, then a random pair for each n.  The anchors' families have sup norm
    below pi/2, which keeps the end operators invertible along S -> 0, so the
    index is that of S = 0: +1 for (gamma_nor, {0} x R^1) and -1 for
    (R^2 x {0}, gamma_nor')."""
    rng = np.random.default_rng([seed, 1])
    anchor_norms = _strata(rng, rounds, 0.5, 1.5)
    random_norms = _strata(rng, 2 * rounds, 0.5, 3.0)
    anchors = ((1, NOR, L1, 1), (2, L0, NOR_PRIME, -1))
    items = []
    for r in range(rounds):
        n, g1, g2, want = anchors[r % 2]
        coeffs = _family(rng, n, 1 + (r // 2) % 2, anchor_norms[r], "coefficients")
        items.append({"config": _config(n, g1, g2, coeffs), "expected": want})
        for i, n in enumerate((1, 2)):
            k = 2 * r + i
            g1, g2 = _random_pair(rng, n, KIND_PAIRS[k % len(KIND_PAIRS)])
            coeffs = _family(rng, n, 1 + (r + i) % 2, random_norms[k], "sampled")
            items.append({"config": _config(n, g1, g2, coeffs), "expected": None})
    return items


def clm_prepare(item: dict, mf):
    cfg = mf.config.parse_config(item["config"])
    return cfg.family, cfg.path1(), cfg.path2()


def clm_run(prepared, mf):
    S, g1, g2 = prepared
    return mf.hamiltonian.clm_hamiltonian(S, g1, g2).values


def clm_check(item: dict, values):
    return ref.check_clm(values, item["expected"])


# ---------------------------------------------------------------- pair-axioms


def _bernstein_angle(rng, n: int) -> list:
    """Generator s(lambda) I with s in [0.25, pi - 0.25] on [0, 1].

    exp(s J) never maps a Lagrangian onto one meeting it, and the Bernstein
    coefficients keep s inside the interval."""
    b0, b1, b2 = rng.uniform(0.25, np.pi - 0.25, size=3)
    eye = np.eye(2 * n)
    return [(b0 * eye).tolist(), (2 * (b1 - b0) * eye).tolist(), ((b0 - 2 * b1 + b2) * eye).tolist()]


def _monotone_phi(rng) -> list:
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, size=4))])
    ys /= ys[-1]
    return [[float(x), float(y)] for x, y in zip(np.linspace(0.0, 1.0, ys.size), ys)]


def _concat_quadruple(rng, n: int, kinds):
    while True:
        g1, g2 = _random_pair(rng, n, kinds)
        b1 = ref.orth(ref.frame(g1, n, 1.0)).tolist()
        b2 = ref.orth(ref.frame(g2, n, 1.0)).tolist()
        g3 = {"type": "symplectic_action", "generator": _generator(rng, n), "base": b1}
        g4 = {"type": "symplectic_action", "generator": _generator(rng, n), "base": b2}
        if ref.transversal(ref.frame(g3, n, 1.0), ref.frame(g4, n, 1.0)):
            return g1, g2, g3, g4


def axiom_inputs(seed: int, rounds: int) -> list:
    """Per round one draw for each n in {1, 2}; a draw is one pair config per
    axiom side.  The regularized pair is built at run time from the angle the
    program picks.  Path kinds cycle with the draw index."""
    rng = np.random.default_rng([seed, 2])
    items = []
    for d in range(2 * rounds):
        n = 1 + d % 2
        pairs = {"nor": (NOR, L1), "nor_prime": (L0, NOR_PRIME)}
        g = _path(rng, n, d % 3)
        pairs["transversal"] = (g, {"type": "symplectic_action",
                                    "generator": _bernstein_angle(rng, n), "base": g})
        g1, g2, g3, g4 = _concat_quadruple(rng, n, ((d + 1) % 3, (d + 2) % 3))
        pairs["concat_whole"] = ({"type": "concat", "pieces": [g1, g3]},
                                 {"type": "concat", "pieces": [g2, g4]})
        pairs["concat_first"] = (g1, g2)
        pairs["concat_second"] = (g3, g4)
        h1, h2 = _random_pair(rng, n, ((d + 2) % 3, d % 3))
        pairs["base"] = (h1, h2)
        phi = _monotone_phi(rng)
        pairs["reparametrized"] = tuple({"type": "reparametrized", "phi": phi, "path": h}
                                        for h in (h1, h2))
        pairs["swapped"] = (h2, h1)
        psi = _generator(rng, n)
        pairs["acted"] = tuple({"type": "symplectic_action", "generator": psi, "base": h}
                               for h in (h1, h2))
        pairs["reversed"] = tuple({"type": "reversed", "path": h} for h in (h1, h2))
        items.append({"n": n, "configs": {k: _config(n, a, b) for k, (a, b) in pairs.items()}})
    return items


def axiom_prepare(item: dict, mf):
    built = {}
    for key, cfg in item["configs"].items():
        parsed = mf.config.parse_config(cfg)
        built[key] = (parsed.path1(), parsed.path2())
    return built


def axiom_run(prepared, mf, item: dict):
    out = {key: mf.maslov.maslov_pair(g1, g2) for key, (g1, g2) in prepared.items()}
    h1, h2 = prepared["base"]
    theta = mf.maslov.perturbation_theta(h1, h2)
    base = item["configs"]["base"]
    rotated = mf.config.parse_config(
        _config(item["n"], base["gamma1"], {"type": "rotated", "angle": -theta, "path": base["gamma2"]})
    )
    out["regularized"] = mf.maslov.maslov_pair(h1, rotated.path2())
    return out


def axiom_check(item: dict, values):
    return ref.check_axioms(values)


# ---------------------------------------------------------------- spectra-sweep


def _double_points(f: np.ndarray, lam: float) -> list:
    """Double eigenvalues of the scalar family at n = 2: only at lambda in {0, 1}."""
    shift = float(sum(f[j, k] * lam**j / (k + 1) for j in range(f.shape[0]) for k in range(f.shape[1])))
    return [np.pi / 2 + shift + k * np.pi for k in range(-6, 7)]


def spectra_inputs(seed: int, rounds: int) -> list:
    """Per round: two general t-dependent families, one scalar t-dependent
    family f(lambda, t) I on (gamma_nor, {0} x R^n) and the walls family, each
    swept over its lambda grid like `maslovflow spectra`; one instance is one
    (family, lambda) window."""
    rng = np.random.default_rng([seed, 3])
    n = SPECTRA_N
    general = {"norm": _strata(rng, 2 * rounds, 0.5, 3.0), "lo": _strata(rng, 2 * rounds, -12.0, -4.0),
               "hi": _strata(rng, 2 * rounds, 4.0, 12.0)}
    scalar_norms = _strata(rng, rounds, 0.5, 3.0)
    scalar_lo = rng.permutation(rounds)
    scalar_hi = rng.permutation(rounds)
    walls = np.zeros((2, 1, 2 * WALLS["n"], 2 * WALLS["n"]))
    walls[1, 0] = WALLS["c"] * np.eye(2 * WALLS["n"])
    items = []
    for r in range(rounds):
        for i in range(2):
            k = 2 * r + i
            g1, g2 = (_path(rng, n, kind) for kind in KIND_PAIRS[k % len(KIND_PAIRS)])
            coeffs = _family(rng, n, 1 + (r + i) % 2, general["norm"][k], "sampled")
            window = (general["lo"][k], general["hi"][k])
            items.append({"kind": "general", "config": _config(n, g1, g2, coeffs, window, SPECTRA_GRID)})
        f = rng.normal(size=(3, 1 + (1 + r % 2)))
        f *= scalar_norms[r] / _sampled_sup(f[:, :, None, None])
        coeffs = (f[:, :, None, None] * np.eye(2 * n)).tolist()
        step = ref.scan_step(_sampled_sup(np.asarray(coeffs)))
        doubles = _double_points(f, 0.0) + _double_points(f, 1.0)
        # a window edge within a scan step of a double eigenvalue hits the
        # window-edge miss; on seeded windows that would fail on some seeds only
        while True:
            window = (-12.0 + 8.0 * (scalar_lo[r] + rng.uniform()) / rounds,
                      4.0 + 8.0 * (scalar_hi[r] + rng.uniform()) / rounds)
            if all(abs(e - d) > 2 * step for e in window for d in doubles):
                break
        items.append({"kind": "scalar", "f": f.tolist(),
                      "config": _config(n, NOR, L1, coeffs, window, SPECTRA_GRID)})
        items.append({"kind": "walls", "c": WALLS["c"],
                      "config": _config(WALLS["n"], L1, L1, walls.tolist(), WALLS["window"],
                                        WALLS["lambda_grid"])})
    return items


def spectra_windows(items: list) -> list:
    """One operation per (family, lambda) of each family's grid."""
    return [(i, float(lam)) for i, item in enumerate(items)
            for lam in np.linspace(0.0, 1.0, item["config"]["lambda_grid"])]


def spectra_prepare(item: dict, mf):
    cfg = mf.config.parse_config(item["config"])
    fam = mf.specflow.BoundaryValueFamily(cfg.path1(), cfg.path2(), cfg.family, steps=cfg.solver.steps)
    return fam, cfg.solver.mu_window


def spectra_run(prepared, mf, lam: float):
    fam, (lo, hi) = prepared
    return mf.specflow.spectrum_window(fam, lam, lo, hi).eigenvalues


def spectra_check(item: dict, lam: float, eigenvalues):
    cfg = item["config"]
    n = cfg["n"]
    lo, hi = cfg["solver"]["mu_window"]
    coeffs = cfg["family"]["coefficients"]
    if item["kind"] == "general":
        return ref.check_general_window(cfg["gamma1"], cfg["gamma2"], coeffs, n, lam, lo, hi, eigenvalues)
    if item["kind"] == "scalar":
        want = ref.scalar_spectrum(item["f"], n, lam, lo, hi)
    else:
        want = ref.walls_spectrum(item["c"], n, lam, lo, hi)
    reach = ref.scan_step(_sampled_sup(np.asarray(coeffs)))
    return ref.compare_spectrum(eigenvalues, want, lo, hi, reach)


INPUTS = {"clm-hamiltonian": clm_inputs, "pair-axioms": axiom_inputs, "spectra-sweep": spectra_inputs}


def inputs(workload: str, seed: int, seconds: float) -> list:
    return INPUTS[workload](seed, rounds_for(workload, seconds))


def main() -> None:
    p = argparse.ArgumentParser(description="print a workload's input list as JSON")
    p.add_argument("--workload", required=True, choices=sorted(INPUTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args()
    print(json.dumps(inputs(args.workload, args.seed, args.seconds)))


if __name__ == "__main__":
    main()
