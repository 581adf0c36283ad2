"""Write every deterministic report of maslovflow to one directory.

    PYTHONPATH=src python tools/dump_reports.py OUTDIR

OUTDIR, which must not exist yet, gets the seven acceptance-suite reports
and, for each configs/*.json, the output of `maslov`, `sflow --csv`,
`spectra --csv`, `verify alpha-beta` (as `<config>.verify`) and `verify
clm` (as `<config>.verify-clm`; a config that sets a family exits 2 there),
and for gamma_nor_vs_l1 also `spectra --window -1.5707963267948966 1.0`, a
window whose lower edge is an eigenvalue at lambda = 0 (as
`<config>.spectra-edge`): each JSON report with its timing_s set to 0, each
CSV, and a `.status` file with the exit code and whatever went to stderr; and
each command's `--help` text, at 80 columns, as `<command>.help`, so that a
flag change shows in the same diff as the reports.  The maslovflow imported
is whichever is first on PYTHONPATH, so dumping two checkouts into two
directories and running `diff -r` on them shows every byte a change moves.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path
from unittest import mock

from maslovflow import cli, suites

ROOT = Path(__file__).resolve().parent.parent
SUITES = (
    (suites.theorem_suite, 50, 2024),
    (suites.hamiltonian_suite, 25, 41),
    (suites.three_term_suite, 25, 42),
    (suites.alpha_beta_suite, 25, 43),
    (suites.morse_suite, 3, 44),
    (suites.axiom_suite, 50, 45),
    (suites.gap_suite, 100, 46),
)
COMMANDS = (("maslov", ["maslov"]), ("sflow", ["sflow"]), ("spectra", ["spectra"]),
            ("verify", ["verify", "alpha-beta"]), ("verify-clm", ["verify", "clm"]))
# (config stem, name, command) run for one config only
EXTRA = (("gamma_nor_vs_l1", "spectra-edge", ["spectra", "--window", "-1.5707963267948966", "1.0"]),)


def _untimed(text: str) -> str:
    return re.sub(r'"timing_s": [^,\n]+', '"timing_s": 0.0', text)


def _dump(out: Path, config: Path, name: str, command: list) -> None:
    """Run one command on config, writing its report, CSV and status."""
    stem = out / f"{config.stem}.{name}"
    args = command + ["--config", str(config), "--out", f"{stem}.json"]
    if command[0] in ("sflow", "spectra"):
        args += ["--csv", f"{stem}.csv"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    report = Path(f"{stem}.json")
    if report.exists():
        report.write_text(_untimed(report.read_text()))
    Path(f"{stem}.status").write_text(f"exit {code}\n{err.getvalue()}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: dump_reports.py OUTDIR\n")
        return 2
    out = Path(argv[0])
    try:
        out.mkdir(parents=True)
    except FileExistsError:
        sys.stderr.write(f"dump_reports.py: OUTDIR {out} exists; give a new directory\n")
        return 2
    for suite, count, seed in SUITES:
        (out / f"{suite.__name__}.json").write_text(_untimed(suite(count, seed).to_json()))
    for config in sorted((ROOT / "configs").glob("*.json")):
        for name, command in COMMANDS:
            _dump(out, config, name, command)
    for stem, name, command in EXTRA:
        _dump(out, ROOT / "configs" / f"{stem}.json", name, command)
    for command in ("maslov", "sflow", "spectra", "verify"):
        text = io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(text):
            with contextlib.suppress(SystemExit):
                cli.main([command, "--help"])
        (out / f"{command}.help").write_text(text.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
