"""Command line interface: maslovflow <command> [--config <file>] [options].

Commands
    maslov   pair index and crossing list for the configured paths
    sflow    spectral flow of the configured boundary-value family
    spectra  CSV sweep of eigenvalue branches over the lambda grid
    verify   the configured instance of an identity, or a seeded randomized
             suite (clm, hamiltonian, three-term, alpha-beta, morse, axioms,
             gap)

Each command accepts only the flags it reads (see README).  Exit status: 0
when all assertions pass, 1 on an assertion failure, 2 on a configuration
error, which includes an invalid solver setting (steps below MIN_STEPS for
any command), a verify flag that the selected check does not read and an
--out or --csv path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ConfigError, ProblemConfig, SolverSettings, _check_solver, check_int, parse_config
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


def _configured(report: VerificationReport, cfg: ProblemConfig) -> VerificationReport:
    """The report of a configured command, echoing the effective config."""
    report.inputs = cfg.to_dict()
    return report


class _CannotWrite(Exception):
    """An --out or --csv path that cannot be opened for writing."""


def _open_to_write(path: str):
    try:
        return open(path, "w")
    except OSError as err:
        raise _CannotWrite(f"cannot write {path}: {err.strerror}") from err


def _write_csv(windows, dest) -> int:
    """Write the eigenvalues of windows to dest as sorted lambda,mu,multiplicity
    rows under a header; return the number of rows."""
    rows = sorted((w.lam, mu, mult) for w in windows for mu, mult in w.eigenvalues)
    dest.write("lambda,mu,multiplicity\n")
    dest.writelines(f"{lam:.12g},{mu:.12g},{int(mult)}\n" for lam, mu, mult in rows)
    return len(rows)


def cmd_maslov(cfg: ProblemConfig, args) -> VerificationReport:
    g1, g2 = cfg.path1(), cfg.path2()
    value = maslov_pair(g1, g2)
    crossings = crossing_list(g1, g2)
    details = [{"lambda_star": c.lambda_star, "sign": c.sign, "multiplicity": c.multiplicity}
               for c in crossings]
    report = VerificationReport("maslov", {}, {"maslov_index": value}, True, details=details)
    return _configured(report, cfg)


def cmd_sflow(cfg: ProblemConfig, args) -> VerificationReport:
    fam = BoundaryValueFamily(cfg.path1(), cfg.path2(), cfg.family, steps=cfg.solver.steps)
    result = spectral_flow(fam)
    if args.csv:
        with _open_to_write(args.csv) as fh:
            _write_csv(result.branch_data, fh)
    details = [{"partition": result.partition, "epsilons": result.epsilons}]
    report = VerificationReport("sflow", {}, {"spectral_flow": result.value}, True, details=details)
    return _configured(report, cfg)


def cmd_spectra(cfg: ProblemConfig, args) -> VerificationReport:
    """The CSV goes to --csv, else to stdout, and the report only to --out."""
    fam = BoundaryValueFamily(cfg.path1(), cfg.path2(), cfg.family, steps=cfg.solver.steps)
    lo, hi = cfg.solver.mu_window
    windows = spectrum_window(fam, np.linspace(0.0, 1.0, cfg.lambda_grid), lo, hi)
    with _open_to_write(args.csv) if args.csv else nullcontext(sys.stdout) as fh:
        rows = _write_csv(windows, fh)
    report = VerificationReport("spectra", {}, {"rows": rows}, True)
    return _configured(report, cfg)


def _family(cfg: ProblemConfig) -> SymmetricFamily:
    return cfg.family if cfg.family is not None else SymmetricFamily.zero(cfg.n)


def _verify_clm(cfg: ProblemConfig, **kw) -> VerificationReport:
    if cfg.family is not None:
        raise ConfigError(
            "family: verify clm checks the theorem for S = 0; "
            "use verify hamiltonian for a configured family"
        )
    return replace(clm_hamiltonian(None, cfg.path1(), cfg.path2(), **kw), command="verify-clm")


@dataclass(frozen=True)
class _Check:
    """One verify choice.  With a config that sets every field in `needs`,
    `instance(cfg, steps=...)` checks the configured instance and reads
    --steps alone; otherwise the seeded `suite` runs, reads the flags in
    `suite_reads`, and has `count` instances unless --count or the config's
    suite.count says otherwise."""

    instance: Callable | None
    needs: tuple
    suite: Callable
    count: int
    suite_reads: tuple


_PATHS = ("gamma1_desc", "gamma2_desc")
_INSTANCE_READS = ("steps",)
_VERIFY = {
    "clm": _Check(_verify_clm, _PATHS, theorem_suite, 25, ("count", "seed")),
    "hamiltonian": _Check(
        lambda cfg, **kw: clm_hamiltonian(_family(cfg), cfg.path1(), cfg.path2(), **kw),
        _PATHS, hamiltonian_suite, 25, ("count", "seed", "steps"),
    ),
    "three-term": _Check(
        lambda cfg, **kw: three_term_identity(_family(cfg), cfg.path1(), cfg.path2(), **kw),
        _PATHS, three_term_suite, 25, ("count", "seed", "steps"),
    ),
    "alpha-beta": _Check(
        lambda cfg, **kw: alpha_beta_identity(
            _family(cfg), cfg.path1(), cfg.path2(), cfg.alpha, cfg.beta, **kw
        ),
        _PATHS + ("alpha", "beta"), alpha_beta_suite, 25, ("count", "seed", "steps"),
    ),
    "morse": _Check(
        lambda cfg, **kw: morse_index_formula(cfg.family, **kw),
        ("family",), morse_suite, 5, ("count", "seed", "steps"),
    ),
    "axioms": _Check(None, (), axiom_suite, 50, ("count", "seed")),
    "gap": _Check(None, (), gap_suite, 100, ("count", "seed")),
}
_VERIFY_CHOICES = tuple(_VERIFY)


def cmd_verify(cfg: ProblemConfig, args) -> VerificationReport:
    """Check the configured instance when the config carries one, otherwise
    run the seeded randomized suite; a flag the chosen check does not read is
    a configuration error."""
    check = _VERIFY[args.which]
    configured = check.instance is not None and all(getattr(cfg, f) is not None for f in check.needs)
    reads = _INSTANCE_READS if configured else check.suite_reads
    for dest in ("count", "seed", "steps"):
        if getattr(args, dest) is not None and dest not in reads:
            mode = "the configured instance" if configured else "the seeded suite"
            raise ConfigError(f"--{dest}: not read by {mode} of verify {args.which}")
    settings = {
        "count": cfg.suite.get("count", check.count) if args.count is None else args.count,
        "seed": cfg.seed,
        "steps": cfg.solver.steps,
    }
    kwargs = {k: settings[k] for k in reads}
    return _configured(check.instance(cfg, **kwargs), cfg) if configured else check.suite(**kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maslovflow",
        description="Maslov indices and spectral flow of Lagrangian boundary-value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {  # the dest of a solver override is its SolverSettings field
        "--config": dict(help="JSON problem configuration"),
        "--out": dict(help="write the JSON report here"),
        "--csv": dict(help="write branch data CSV here"),
        "--count": dict(type=int, help="override the suite instance count"),
        "--seed": dict(type=int, help="override the config seed"),
        "--steps": dict(type=int, help="override solver steps"),
        "--window": dict(type=float, nargs=2, metavar=("MU_MIN", "MU_MAX"), dest="mu_window",
                         help="override the eigenvalue window"),
    }
    commands = (
        ("maslov", cmd_maslov, "Maslov index of the configured pair",
         ("--config", "--out")),
        ("sflow", cmd_sflow, "spectral flow of the configured family",
         ("--config", "--out", "--csv", "--steps")),
        ("spectra", cmd_spectra, "eigenvalue branches as CSV",
         ("--config", "--out", "--csv", "--steps", "--window")),
        ("verify", cmd_verify, "randomized verification suites",
         ("--config", "--out", "--count", "--seed", "--steps")),
    )
    for name, run, help_text, options in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if name == "verify":
            p.add_argument("which", choices=_VERIFY_CHOICES)
        for flag in options:
            p.add_argument(flag, required=flag == "--config" and name != "verify", **flags[flag])
    return parser


def _effective(cfg: ProblemConfig, args) -> ProblemConfig:
    """The config with the CLI overrides applied; solver, seed and count
    overrides pass the same checks as the config file."""
    solver = {f.name: getattr(args, f.name, None) for f in fields(SolverSettings)}
    solver = {k: _check_solver(k, v, "--window" if k == "mu_window" else "--" + k)
              for k, v in solver.items() if v is not None}
    if solver:
        cfg.solver = replace(cfg.solver, **solver)
    if getattr(args, "seed", None) is not None:
        cfg.seed = check_int(args.seed, "--seed", 0)
    if getattr(args, "count", None) is not None:
        check_int(args.count, "--count", 1)
    return cfg


def main(argv=None) -> int:
    """Run one command, stamp its report with the command's wall time and
    write it to --out and, except for spectra, to stdout."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective(parse_config(args.config) if args.config else ProblemConfig(n=1), args)
        t0 = time.perf_counter()
        report = args.run(cfg, args)
        report.timing_s = time.perf_counter() - t0
        text = report.to_json()
        if args.out:
            with _open_to_write(args.out) as fh:
                fh.write(text)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    except _CannotWrite as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (ValueError, RuntimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    if args.command != "spectra":
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
