"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every criterion is checked at its stated tolerance and runtime budget.  The
integer identities are always cross-checks between the two independent
pipelines (shooting spectra versus unitary winding); no expected integer is
asserted without an oracle.
"""

import json
import time

import numpy as np

from maslovflow import (
    BoundaryValueFamily,
    ConstantPath,
    discretized_gap_diagnostic,
    gamma_nor,
    gamma_nor_prime,
    l0_frame,
    l1_frame,
    spectrum_window,
)
from maslovflow.cli import main
from maslovflow.suites import (
    alpha_beta_suite,
    axiom_suite,
    gap_suite,
    hamiltonian_suite,
    morse_suite,
    theorem_suite,
    three_term_suite,
)

from test_specflow import reference_spectrum, assert_spectrum_matches


def _verdict(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_closed_form_spectra():
    t0 = time.perf_counter()
    lo, hi = -np.pi + 0.1, np.pi - 0.1
    lams = np.round(np.linspace(0.0, 1.0, 11), 10)
    ok = True
    for n in (1, 2, 3):
        fam_nor = BoundaryValueFamily(gamma_nor(n), ConstantPath(l1_frame(n)))
        fam_pri = BoundaryValueFamily(ConstantPath(l0_frame(n)), gamma_nor_prime(n))
        for lam in lams:
            assert_spectrum_matches(
                spectrum_window(fam_nor, float(lam), lo, hi),
                reference_spectrum("nor", n, float(lam), lo, hi),
                tol=1e-7,
            )
            assert_spectrum_matches(
                spectrum_window(fam_pri, float(lam), lo, hi),
                reference_spectrum("prime", n, float(lam), lo, hi),
                tol=1e-7,
            )
    _verdict(1, "closed-form spectra", ok, time.perf_counter() - t0, 30.0)


def test_criterion_2_normalization_cli(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg_nor = tmp_path / "nor.json"
    cfg_nor.write_text(json.dumps({
        "n": 1,
        "gamma1": {"type": "normalization", "which": "gamma_nor"},
        "gamma2": {"type": "constant", "frame": "l1"},
    }))
    cfg_pri = tmp_path / "pri.json"
    cfg_pri.write_text(json.dumps({
        "n": 1,
        "gamma1": {"type": "constant", "frame": "l0"},
        "gamma2": {"type": "normalization", "which": "gamma_nor_prime"},
    }))
    values = {}
    for name, cfg in (("nor", cfg_nor), ("pri", cfg_pri)):
        for cmd, key in (("maslov", "maslov_index"), ("sflow", "spectral_flow")):
            out = tmp_path / f"{name}-{cmd}.json"
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
            values[(name, cmd)] = json.loads(out.read_text())["values"][key]
    capsys.readouterr()
    ok = (
        values[("nor", "maslov")] == 1
        and values[("nor", "sflow")] == 1
        and values[("pri", "maslov")] == -1
        and values[("pri", "sflow")] == -1
    )
    _verdict(2, "normalization via CLI", ok, time.perf_counter() - t0, 5.0)


def test_criterion_3_theorem_at_desk_scale():
    t0 = time.perf_counter()
    report = theorem_suite(count=50, seed=2024)
    _verdict(3, "spectral flow equals pair index (50 pairs)", report.passed,
             time.perf_counter() - t0, 300.0)


def test_criterion_4_hamiltonian_formula():
    t0 = time.perf_counter()
    report = hamiltonian_suite(count=25, seed=41)
    _verdict(4, "Hamiltonian spectral-flow formula (25 instances)", report.passed,
             time.perf_counter() - t0, 600.0)


def test_criterion_5_corollaries():
    t0 = time.perf_counter()
    rep3 = three_term_suite(count=25, seed=42)
    repab = alpha_beta_suite(count=25, seed=43)
    collapse = [d for d in rep3.details if d.get("instance") == "closed-endpoints"]
    ok = rep3.passed and repab.passed and len(collapse) == 1 and collapse[0]["passed"]
    _verdict(5, "three-term and alpha/beta corollaries (25 each)", ok,
             time.perf_counter() - t0, 600.0)


def test_criterion_6_dirichlet_ramp():
    t0 = time.perf_counter()
    report = morse_suite(count=3, seed=44)
    shape = [d for d in report.details if d.get("instance") == "ramp-shape"][0]
    ok = report.passed and shape["monotone"] and shape["has_jump"]
    _verdict(6, "Dirichlet ramp Morse-type formula", ok, time.perf_counter() - t0, 120.0)


def test_criterion_7_axiom_suite():
    t0 = time.perf_counter()
    report = axiom_suite(count=50, seed=45)
    _verdict(7, "pair-index axiom suite (50 each)", report.passed,
             time.perf_counter() - t0, 300.0)


def test_criterion_8_gap_metric_suite():
    t0 = time.perf_counter()
    report = gap_suite(count=100, seed=46)
    by_name = {d["property"]: d for d in report.details}
    ok = (
        report.passed
        and by_name["gap-max-formula"]["max_deviation"] <= 1e-12
        and by_name["kato-projection-identity"]["max_discrepancy"] <= 1e-10
        and by_name["spectrum-shift"]["max_deviation"] <= 1e-7
        and by_name["conjugation-delta0=0.05"]["passed"]
        and by_name["conjugation-delta0=0.1"]["passed"]
    )
    _verdict(8, "gap-metric suite", ok, time.perf_counter() - t0, 120.0)


def test_criterion_9_discretized_continuity():
    t0 = time.perf_counter()
    fam = BoundaryValueFamily(gamma_nor(1), ConstantPath(l1_frame(1)))
    report = discretized_gap_diagnostic(fam, 0.0, [0.02, 0.01, 0.005], N=48)
    gaps = [e.graph_gap for e in report.entries]
    ok = (
        report.passed
        and gaps[0] > gaps[1] > gaps[2]
        and all(e.ratio <= 100 for e in report.entries if e.informative)
    )
    _verdict(9, "discretized continuity diagnostic", ok, time.perf_counter() - t0, 120.0)
