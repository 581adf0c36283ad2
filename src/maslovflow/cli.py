"""Command line interface: maslovflow <command> --config <file> [options].

Commands
    maslov   pair index and crossing list for the configured paths
    sflow    spectral flow of the configured boundary-value family
    spectra  CSV sweep of eigenvalue branches over the lambda grid
    verify   randomized identity suites (clm, hamiltonian, three-term,
             alpha-beta, morse, axioms, gap)

Exit status: 0 when all assertions pass, 1 on an assertion failure, 2 on a
configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .config import ConfigError, ProblemConfig, parse_config
from .families import SymmetricFamily
from .hamiltonian import (
    alpha_beta_identity,
    clm_hamiltonian,
    morse_index_formula,
    three_term_identity,
)
from .maslov import crossing_list, maslov_pair
from .reports import VerificationReport
from .specflow import BoundaryValueFamily, spectral_flow, spectrum_window
from .suites import (
    alpha_beta_suite,
    axiom_suite,
    gap_suite,
    hamiltonian_suite,
    morse_suite,
    theorem_suite,
    three_term_suite,
)

_VERIFY_CHOICES = ("clm", "hamiltonian", "three-term", "alpha-beta", "morse", "axioms", "gap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maslovflow",
        description="Maslov indices and spectral flow of Lagrangian boundary-value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON problem configuration")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--csv", help="write branch data CSV here")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--steps", type=int, help="override solver steps")
        p.add_argument("--tol", type=float, help="override solver tolerance")
        p.add_argument("--max-depth", type=int, dest="max_depth",
                       help="override the refinement depth cap")
        p.add_argument("--window", type=float, nargs=2, metavar=("MU_MIN", "MU_MAX"),
                       help="override the eigenvalue window")

    common(sub.add_parser("maslov", help="Maslov index of the configured pair"))
    common(sub.add_parser("sflow", help="spectral flow of the configured family"))
    common(sub.add_parser("spectra", help="eigenvalue branches as CSV"))
    verify = sub.add_parser("verify", help="randomized verification suites")
    verify.add_argument("which", choices=_VERIFY_CHOICES)
    verify.add_argument("--count", type=int, help="override the suite instance count")
    common(verify, config_required=False)
    return parser


def _effective(cfg: ProblemConfig, args) -> ProblemConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.solver.steps = args.steps
    if args.tol is not None:
        cfg.solver.tol = args.tol
    if args.max_depth is not None:
        cfg.solver.max_depth = args.max_depth
    if args.window is not None:
        if not args.window[0] < args.window[1]:
            raise ConfigError("--window: expected MU_MIN < MU_MAX")
        cfg.solver.mu_window = (args.window[0], args.window[1])
    return cfg


def _emit(report: VerificationReport, args) -> int:
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def _csv_rows(rows) -> str:
    lines = ["lambda,mu,multiplicity"]
    for lam, mu, mult in rows:
        lines.append(f"{lam:.12g},{mu:.12g},{int(mult)}")
    return "\n".join(lines) + "\n"


def cmd_maslov(cfg: ProblemConfig, args) -> int:
    t0 = time.perf_counter()
    g1, g2 = cfg.path1(), cfg.path2()
    value = maslov_pair(g1, g2, tol=cfg.solver.tol, max_depth=cfg.solver.max_depth)
    crossings = crossing_list(g1, g2, tol=cfg.solver.tol, max_depth=cfg.solver.max_depth)
    report = VerificationReport(
        command="maslov",
        inputs=cfg.to_dict(),
        values={"maslov_index": value},
        passed=True,
        tolerances={"tol": cfg.solver.tol},
        details=[
            {"lambda_star": c.lambda_star, "sign": c.sign, "multiplicity": c.multiplicity}
            for c in crossings
        ],
        timing_s=time.perf_counter() - t0,
    )
    return _emit(report, args)


def cmd_sflow(cfg: ProblemConfig, args) -> int:
    t0 = time.perf_counter()
    fam = BoundaryValueFamily(cfg.path1(), cfg.path2(), cfg.family, steps=cfg.solver.steps)
    result = spectral_flow(fam, tol=cfg.solver.tol, max_depth=cfg.solver.max_depth)
    report = VerificationReport(
        command="sflow",
        inputs=cfg.to_dict(),
        values={"spectral_flow": result.value},
        passed=True,
        tolerances={"tol": cfg.solver.tol},
        details=[
            {"partition": result.partition, "epsilons": result.epsilons},
        ],
        timing_s=time.perf_counter() - t0,
    )
    if args.csv:
        rows = []
        for window in result.branch_data:
            for mu, mult in window.eigenvalues:
                rows.append((window.lam, mu, mult))
        rows.sort()
        with open(args.csv, "w") as fh:
            fh.write(_csv_rows(rows))
    return _emit(report, args)


def cmd_spectra(cfg: ProblemConfig, args) -> int:
    t0 = time.perf_counter()
    fam = BoundaryValueFamily(cfg.path1(), cfg.path2(), cfg.family, steps=cfg.solver.steps)
    lo, hi = cfg.solver.mu_window
    rows = []
    for lam in np.linspace(0.0, 1.0, cfg.lambda_grid):
        window = spectrum_window(fam, float(lam), lo, hi, tol=cfg.solver.tol)
        for mu, mult in window.eigenvalues:
            rows.append((float(lam), mu, mult))
    rows.sort()
    text = _csv_rows(rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.out:
        report = VerificationReport(
            command="spectra",
            inputs=cfg.to_dict(),
            values={"rows": len(rows)},
            passed=True,
            tolerances={"tol": cfg.solver.tol},
            timing_s=time.perf_counter() - t0,
        )
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    return 0


def cmd_verify(cfg: ProblemConfig, args) -> int:
    """Dispatch to a configured single instance when paths are given,
    otherwise to the seeded randomized suite."""
    which = args.which
    seed = cfg.seed
    count = args.count or cfg.suite.get("count")
    steps = cfg.solver.steps
    configured = cfg.gamma1_desc is not None and cfg.gamma2_desc is not None
    family = cfg.family if cfg.family is not None else SymmetricFamily.zero(cfg.n)
    solver = {"tol": cfg.solver.tol, "max_depth": cfg.solver.max_depth}
    if which == "clm":
        if configured:
            g1, g2 = cfg.path1(), cfg.path2()
            m = maslov_pair(g1, g2, **solver)
            fam = BoundaryValueFamily(g1, g2, steps=steps)
            s = spectral_flow(fam, **solver).value
            report = VerificationReport(
                command="verify-clm",
                inputs=cfg.to_dict(),
                values={"maslov": m, "sfl": s},
                passed=m == s,
                tolerances={"integer_equality": 0, "tol": cfg.solver.tol},
            )
        else:
            report = theorem_suite(count=count or 25, seed=seed)
    elif which == "hamiltonian":
        if configured:
            report = clm_hamiltonian(family, cfg.path1(), cfg.path2(), steps=steps, **solver)
            report.inputs = cfg.to_dict()
            report.tolerances["tol"] = cfg.solver.tol
        else:
            report = hamiltonian_suite(count=count or 25, seed=seed, steps=steps)
    elif which == "three-term":
        if configured:
            report = three_term_identity(family, cfg.path1(), cfg.path2(), steps=steps, **solver)
            report.inputs = cfg.to_dict()
            report.tolerances["tol"] = cfg.solver.tol
        else:
            report = three_term_suite(count=count or 25, seed=seed, steps=steps)
    elif which == "alpha-beta":
        if configured and cfg.alpha is not None and cfg.beta is not None:
            report = alpha_beta_identity(
                family, cfg.path1(), cfg.path2(), cfg.alpha, cfg.beta, steps=steps, **solver
            )
            report.inputs = cfg.to_dict()
            report.tolerances["tol"] = cfg.solver.tol
        else:
            report = alpha_beta_suite(count=count or 25, seed=seed, steps=steps)
    elif which == "morse":
        if cfg.family is not None:
            report = morse_index_formula(cfg.family, steps=steps, **solver)
            report.inputs = cfg.to_dict()
            report.tolerances["tol"] = cfg.solver.tol
        else:
            report = morse_suite(count=count or 5, seed=seed, steps=steps)
    elif which == "axioms":
        report = axiom_suite(count=count or 50, seed=seed)
    else:
        report = gap_suite(count=count or 100, seed=seed)
    return _emit(report, args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = parse_config(args.config)
        else:
            cfg = ProblemConfig(n=1)
        cfg = _effective(cfg, args)
        if args.command == "maslov":
            return cmd_maslov(cfg, args)
        if args.command == "sflow":
            return cmd_sflow(cfg, args)
        if args.command == "spectra":
            return cmd_spectra(cfg, args)
        return cmd_verify(cfg, args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    except (ValueError, RuntimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
