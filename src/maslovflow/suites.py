"""Randomized verification suites cross-checking the two computational pipelines.

Every suite draws seeded instances, evaluates both sides of an identity
through independent code paths (shooting spectra versus unitary winding) and
reports exact integer agreement.  Generators are deterministic functions of
the seed.
"""

from __future__ import annotations

import numpy as np

from .families import SymmetricFamily
from .hamiltonian import (
    alpha_beta_identity,
    clm_hamiltonian,
    morse_index_formula,
    three_term_identity,
)
from .maslov import maslov_pair, perturbation_theta
from .paths import (
    ConcatPath,
    ConstantPath,
    LagrangianPath,
    PiecewiseLinear,
    PolynomialAction,
    ReparametrizedPath,
    RotatedPath,
    SymplecticActionPath,
    UnitaryDiagonalPath,
    gamma_nor,
    gamma_nor_prime,
)
from .reports import VerificationReport
from .specflow import (
    DEFAULT_STEPS,
    BoundaryValueFamily,
    _spectra_deviations,
    conjugation_spectrum_check,
    spectral_flow,
    spectral_flow_shifted,
    spectrum_window,
)
from .symplectic import (
    LagrangianFrame,
    directed_gap,
    gap_distance,
    intersection_dimension,
    kato_projection_identity_check,
    l0_frame,
    l1_frame,
)

# the suites draw instances with n = 1, ..., _N_MAX in turn
_N_MAX = 2
# hamiltonian_suite draws sup norms in [0.5, _SUP_NORM]
_SUP_NORM = 3.0
_RAMP_CS = (5.0, 15.0, 30.0)


def random_symmetric(rng, m: int, scale: float) -> np.ndarray:
    A = rng.normal(size=(m, m)) * scale
    return np.triu(A) + np.triu(A, 1).T


def random_lagrangian_frame(rng, n: int) -> LagrangianFrame:
    """Haar-ish random Lagrangian subspace through a random unitary."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q @ np.diag(np.sign(np.sign(np.diag(R).real) + 0.5))
    return LagrangianFrame(n, np.vstack([Q.real, Q.imag]))


def random_action(rng, n: int):
    """lambda -> expm(J G(lambda)) for a random quadratic symmetric G."""
    gens = [random_symmetric(rng, 2 * n, 0.8) for _ in range(3)]
    gens[0] = np.zeros((2 * n, 2 * n))  # identity at lambda = 0
    return PolynomialAction(gens)


def random_path(rng, n: int) -> LagrangianPath:
    """A random path: rotation, unitary-diagonal or symplectic action."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        xs = [0.0, float(rng.uniform(0.3, 0.7)), 1.0]
        ys = rng.uniform(-2.2, 2.2, size=3)
        return RotatedPath(random_lagrangian_frame(rng, n), PiecewiseLinear(xs, ys))
    if kind == 1:
        phases = [
            PiecewiseLinear([0.0, 0.5, 1.0], rng.uniform(-2.5, 2.5, size=3))
            for _ in range(n)
        ]
        return UnitaryDiagonalPath(phases)
    return SymplecticActionPath(random_action(rng, n), random_lagrangian_frame(rng, n))


def random_pair(rng, n: int, force_nonadmissible: bool = False):
    """A pair of random paths, optionally sharing an endpoint subspace."""
    for _ in range(50):
        g1 = random_path(rng, n)
        if force_nonadmissible:
            # second path starts exactly at gamma_1's start (action is I at 0)
            return g1, SymplecticActionPath(random_action(rng, n), g1.frame(0.0))
        g2 = random_path(rng, n)
        if (
            intersection_dimension(g1.frame(0.0), g2.frame(0.0)) == 0
            and intersection_dimension(g1.frame(1.0), g2.frame(1.0)) == 0
        ):
            return g1, g2
    raise RuntimeError("could not sample an admissible pair")


def random_symmetric_family(rng, n: int, deg_lambda: int, deg_t: int, sup_target: float) -> SymmetricFamily:
    coeffs = np.array(
        [[random_symmetric(rng, 2 * n, 1.0) for _ in range(deg_t + 1)] for _ in range(deg_lambda + 1)]
    )
    fam = SymmetricFamily(coeffs)
    norm = fam.sup_norm()
    if norm > 0:
        fam = fam.scaled(sup_target / norm)
    return fam


def _suite_rng(count: int, seed: int):
    """The generator of a suite of count seeded instances.  A count below 1
    raises ValueError: a suite of no instances would pass vacuously."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    return np.random.default_rng(seed)


def _suite_report(command: str, details: list, inputs: dict) -> VerificationReport:
    passed = all(d.get("passed", False) for d in details)
    values = {
        "instances": len(details),
        "failures": sum(0 if d.get("passed") else 1 for d in details),
    }
    return VerificationReport(
        command=command,
        inputs=inputs,
        values=values,
        passed=passed,
        tolerances={"integer_equality": 0},
        details=details,
    )


def theorem_suite(count: int, seed: int) -> VerificationReport:
    """Spectral flow equals the pair index for S = 0 on randomized pairs."""
    rng = _suite_rng(count, seed)
    details = []
    for i in range(count):
        n = 1 + i % _N_MAX
        nonadm = i % 4 == 3
        g1, g2 = random_pair(rng, n, force_nonadmissible=nonadm)
        rep = clm_hamiltonian(None, g1, g2)
        details.append({"instance": i, "n": n, "nonadmissible": nonadm, "passed": rep.passed, **rep.values})
    return _suite_report("verify-clm", details, {"count": count, "seed": seed, "n_max": _N_MAX})


def hamiltonian_suite(count: int, seed: int, steps: int = DEFAULT_STEPS) -> VerificationReport:
    """The Hamiltonian spectral-flow formula on randomized polynomial families."""
    rng = _suite_rng(count, seed)
    details = []
    for i in range(count):
        n = 1 + i % _N_MAX
        g1, g2 = random_pair(rng, n)
        S = random_symmetric_family(rng, n, 2, 1 + i % 2, float(rng.uniform(0.5, _SUP_NORM)))
        rep = clm_hamiltonian(S, g1, g2, steps=steps)
        details.append(
            {"instance": i, "n": n, "s_norm": S.sup_norm(), "passed": rep.passed, **rep.values}
        )
    return _suite_report(
        "verify-hamiltonian", details, {"count": count, "seed": seed, "sup_norm": _SUP_NORM}
    )


def three_term_suite(count: int, seed: int, steps: int = DEFAULT_STEPS) -> VerificationReport:
    """The endpoint-correction identity, plus its closed-endpoint collapse."""
    rng = _suite_rng(count, seed)
    details = []
    for i in range(count):
        n = 1 + i % 2
        g1, g2 = random_pair(rng, n)
        S = random_symmetric_family(rng, n, 2, 1, float(rng.uniform(0.5, 2.0)))
        rep = three_term_identity(S, g1, g2, steps=steps)
        details.append({"instance": i, "n": n, "passed": rep.passed, **rep.values})

    # closed endpoints: S_0 = S_1 and closed boundary paths collapse the
    # correction terms, leaving sfl = maslov_pair
    n = 1
    g1 = gamma_nor(n)
    g2 = ConstantPath(l1_frame(n))
    lam_sym = np.zeros((3, 2, 2 * n, 2 * n))
    lam_sym[1, 0] = random_symmetric(rng, 2 * n, 0.6)
    lam_sym[2, 0] = -lam_sym[1, 0]  # lambda(1-lambda) profile: equal ends
    lam_sym[0, 1] = random_symmetric(rng, 2 * n, 0.4)
    S = SymmetricFamily(lam_sym)
    rep = three_term_identity(S, g1, g2, steps=steps)
    collapse_ok = (
        rep.passed
        and rep.values["term_end"] == rep.values["term_start"]
        and rep.values["spectral_flow"] == rep.values["term_pair"]
    )
    details.append({"instance": "closed-endpoints", "n": n, "passed": collapse_ok, **rep.values})
    return _suite_report("verify-three-term", details, {"count": count, "seed": seed})


def _random_alpha_beta(rng):
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, size=2)), [1.0]])
    # alpha must stay in [0, 1 - lambda] so that beta = alpha + lambda fits [0, 1]
    fracs = rng.uniform(0.0, 1.0, size=xs.size)
    fracs[-1] = 0.0
    alpha_ys = fracs * (1.0 - xs)
    beta_ys = alpha_ys + xs
    return PiecewiseLinear(xs, alpha_ys), PiecewiseLinear(xs, beta_ys)


def alpha_beta_suite(count: int, seed: int, steps: int = DEFAULT_STEPS) -> VerificationReport:
    """The reparametrized identity with beta(lambda) = alpha(lambda) + lambda."""
    rng = _suite_rng(count, seed)
    details = []
    for i in range(count):
        n = 1 + i % 2
        g1, g2 = random_pair(rng, n)
        S = random_symmetric_family(rng, n, 1, 1, float(rng.uniform(0.5, 2.0)))
        alpha, beta = _random_alpha_beta(rng)
        rep = alpha_beta_identity(S, g1, g2, alpha, beta, steps=steps)
        details.append({"instance": i, "n": n, "passed": rep.passed, **rep.values})
    return _suite_report("verify-alpha-beta", details, {"count": count, "seed": seed})


def morse_suite(count: int, seed: int, steps: int = DEFAULT_STEPS) -> VerificationReport:
    """Dirichlet-type boundary conditions: the ramp family plus random instances."""
    rng = _suite_rng(count, seed)
    details = []
    ramp_values = []
    for c in _RAMP_CS:
        n = 1
        coeffs = np.zeros((2, 1, 2 * n, 2 * n))
        coeffs[1, 0] = c * np.eye(2 * n)
        rep = morse_index_formula(SymmetricFamily(coeffs), steps=steps)
        ramp_values.append(rep.values["spectral_flow"])
        details.append({"instance": f"ramp-c={c}", "passed": rep.passed, **rep.values})
    monotone = all(a <= b for a, b in zip(ramp_values[:-1], ramp_values[1:]))
    jumps = any(b - a >= 1 for a, b in zip(ramp_values[:-1], ramp_values[1:]))
    details.append(
        {
            "instance": "ramp-shape",
            "values": ramp_values,
            "passed": monotone and jumps,
            "monotone": monotone,
            "has_jump": jumps,
        }
    )
    for i in range(count):
        n = 1 + i % 2
        S = random_symmetric_family(rng, n, 1, 1, float(rng.uniform(1.0, 4.0)))
        rep = morse_index_formula(S, steps=steps)
        details.append({"instance": i, "n": n, "passed": rep.passed, **rep.values})
    return _suite_report("verify-morse", details, {"cs": list(_RAMP_CS), "count": count, "seed": seed})


def _transversal_pair(rng, n: int):
    """gamma_2 = exp(s(lambda) J) gamma_1 with s bounded away from pi Z."""
    g1 = random_path(rng, n)
    s = PiecewiseLinear([0.0, 0.5, 1.0], rng.uniform(0.25, np.pi - 0.25, size=3))
    return g1, RotatedPath(g1, s)


def _concat_quadruple(rng, n: int):
    for _ in range(60):
        g1, g2 = random_pair(rng, n)
        g3 = SymplecticActionPath(random_action(rng, n), g1.frame(1.0))
        g4 = SymplecticActionPath(random_action(rng, n), g2.frame(1.0))
        ok = (
            intersection_dimension(g1.frame(1.0), g2.frame(1.0)) == 0
            and intersection_dimension(g3.frame(1.0), g4.frame(1.0)) == 0
        )
        if ok:
            return g1, g2, g3, g4
    raise RuntimeError("could not sample a concatenation quadruple")


def _monotone_reparam(rng):
    steps = rng.uniform(0.2, 1.0, size=4)
    ys = np.concatenate([[0.0], np.cumsum(steps)])
    ys /= ys[-1]
    xs = np.linspace(0.0, 1.0, ys.size)
    return PiecewiseLinear(xs, ys)


def axiom_suite(count: int, seed: int) -> VerificationReport:
    """The pair-index axioms and symmetries on randomized inputs, exact integers."""
    rng = _suite_rng(count, seed)
    details = []

    norm_ok = (
        maslov_pair(gamma_nor(1), ConstantPath(l1_frame(1))) == 1
        and maslov_pair(gamma_nor(2), ConstantPath(l1_frame(2))) == 1
        and maslov_pair(ConstantPath(l0_frame(1)), gamma_nor_prime(1)) == -1
        and maslov_pair(ConstantPath(l0_frame(2)), gamma_nor_prime(2)) == -1
    )
    details.append({"property": "normalization", "passed": norm_ok})

    checks = {
        "transversal-vanishing": [],
        "concatenation": [],
        "reparametrization": [],
        "antisymmetry": [],
        "symplectic-invariance": [],
        "reversal": [],
        "regularization-consistency": [],
    }
    for i in range(count):
        n = 1 + i % _N_MAX

        g1, g2 = _transversal_pair(rng, n)
        checks["transversal-vanishing"].append(maslov_pair(g1, g2) == 0)

        g1, g2, g3, g4 = _concat_quadruple(rng, n)
        whole = maslov_pair(ConcatPath([g1, g3]), ConcatPath([g2, g4]))
        parts = maslov_pair(g1, g2) + maslov_pair(g3, g4)
        checks["concatenation"].append(whole == parts)

        g1, g2 = random_pair(rng, n)
        base = maslov_pair(g1, g2)
        phi = _monotone_reparam(rng)
        checks["reparametrization"].append(
            maslov_pair(ReparametrizedPath(g1, phi), ReparametrizedPath(g2, phi)) == base
        )
        checks["antisymmetry"].append(maslov_pair(g2, g1) == -base)
        psi = random_action(rng, n)
        checks["symplectic-invariance"].append(
            maslov_pair(SymplecticActionPath(psi, g1), SymplecticActionPath(psi, g2)) == base
        )
        checks["reversal"].append(maslov_pair(g1.reversed(), g2.reversed()) == -base)
        theta = perturbation_theta(g1, g2)
        checks["regularization-consistency"].append(
            maslov_pair(g1, RotatedPath(g2, -theta)) == base
        )

    for name, results in checks.items():
        details.append(
            {"property": name, "count": len(results), "failures": int(np.sum(~np.asarray(results))),
             "passed": all(results)}
        )
    return _suite_report("verify-axioms", details, {"count": count, "seed": seed, "n_max": _N_MAX})


def gap_suite(count: int, seed: int) -> VerificationReport:
    """Gap-metric identities, the Kato projection identity, the spectrum shift
    law, and the conjugation consistency check."""
    rng = _suite_rng(count, seed)
    details = []

    worst_max_formula = 0.0
    for _ in range(count):
        n = 1 + int(rng.integers(0, 3))
        L1 = random_lagrangian_frame(rng, n)
        L2 = random_lagrangian_frame(rng, n)
        dev = abs(gap_distance(L1, L2) - max(directed_gap(L1, L2), directed_gap(L2, L1)))
        worst_max_formula = max(worst_max_formula, dev)
    details.append(
        {
            "property": "gap-max-formula",
            "count": count,
            "max_deviation": worst_max_formula,
            "passed": worst_max_formula <= 1e-12,
        }
    )

    kato_pairs = 0
    worst_kato = 0.0
    kato_ok = True
    while kato_pairs < count:
        n = 1 + int(rng.integers(0, 3))
        L1 = random_lagrangian_frame(rng, n)
        L2 = random_lagrangian_frame(rng, n)
        if gap_distance(L1, L2) >= 1.0 - 1e-9:
            continue
        kato_pairs += 1
        rep = kato_projection_identity_check(L1.projector, L2.projector)
        worst_kato = max(worst_kato, rep.max_discrepancy)
        kato_ok = kato_ok and rep.hypothesis_met and rep.max_discrepancy <= 1e-10
    details.append(
        {
            "property": "kato-projection-identity",
            "count": count,
            "max_discrepancy": worst_kato,
            "passed": kato_ok,
        }
    )

    # spectrum shift law sigma(A + delta) = sigma(A) + delta
    g1 = gamma_nor(1)
    g2 = ConstantPath(l1_frame(1))
    fam = BoundaryValueFamily(g1, g2)
    lams = np.array([0.0, 0.3, 0.7])
    bases = spectrum_window(fam, lams, -1.2, 1.2)
    spectra = []
    for delta in (0.1, 0.01):
        shifts = spectrum_window(fam.shifted(delta), lams, -1.2 + delta, 1.2 + delta)
        spectra += [(base.values() + delta, shifted.values()) for base, shifted in zip(bases, shifts)]
    _, worst_shift, shift_ok = _spectra_deviations(spectra)
    details.append(
        {
            "property": "spectrum-shift",
            "max_deviation": worst_shift,
            "passed": shift_ok,
        }
    )

    base_value = spectral_flow(fam).value
    ladder_ok = all(
        spectral_flow_shifted(fam, d) == base_value for d in (0.1, 0.01, 0.001)
    )
    details.append({"property": "shift-invariance-ladder", "passed": ladder_ok})

    for d0 in (0.05, 0.1):
        rep = conjugation_spectrum_check(g1, g2, d0)
        details.append(
            {
                "property": f"conjugation-delta0={d0}",
                "max_deviation": rep.max_spectrum_deviation,
                "sfl_shifted": rep.sfl_shifted,
                "sfl_rotated": rep.sfl_rotated,
                "passed": rep.passed,
            }
        )
    return _suite_report("verify-gap", details, {"count": count, "seed": seed})
