"""Tests for the JSON configuration schema and the command line interface."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maslovflow.cli as cli
import maslovflow.config as config
import maslovflow.hamiltonian as hamiltonian
import maslovflow.specflow as specflow
from maslovflow.cli import _VERIFY_CHOICES, main
from maslovflow.config import ConfigError, SolverSettings, parse_config
from maslovflow.paths import (
    ConstantPath,
    PiecewiseLinear,
    PolynomialAction,
    ReparametrizedPath,
    RotatedPath,
    SymplecticActionPath,
    UnitaryDiagonalPath,
)
from maslovflow.specflow import BoundaryValueFamily, spectral_flow
from maslovflow.suites import (
    alpha_beta_suite,
    axiom_suite,
    gap_suite,
    hamiltonian_suite,
    morse_suite,
    theorem_suite,
    three_term_suite,
)
from maslovflow.symplectic import frame_from_basis, l0_frame, l1_frame
from test_maslov import _regularization_case

GAMMA_NOR_CFG = {
    "n": 1,
    "gamma1": {"type": "normalization", "which": "gamma_nor"},
    "gamma2": {"type": "constant", "frame": "l1"},
    "solver": {"steps": 256, "mu_window": [-3.04, 3.04]},
    "seed": 0,
    "lambda_grid": 21,
}

IDENTITY_CFG = {
    **GAMMA_NOR_CFG,
    "family": {
        "coefficients": [
            [[[0.4, 0.1], [0.1, -0.3]]],
            [[[0.6, 0.0], [0.0, 0.6]]],
        ]
    },
    "alpha": [[0.0, 0.5], [1.0, 0.0]],
    "beta": [[0.0, 0.5], [1.0, 1.0]],
}

PRIME_CFG = {
    "n": 1,
    "gamma1": {"type": "constant", "frame": "l0"},
    "gamma2": {"type": "normalization", "which": "gamma_nor_prime"},
    "seed": 0,
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_parse_roundtrip_identity(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.json", GAMMA_NOR_CFG))
    again = parse_config(cfg.to_json())
    assert cfg.to_dict() == again.to_dict()


def test_parse_rejects_bad_n():
    with pytest.raises(ConfigError, match="n"):
        parse_config({"n": 0})


def test_parse_rejects_bad_descriptor():
    with pytest.raises(ConfigError, match="gamma1.type"):
        parse_config({"n": 1, "gamma1": {"type": "nonsense"}})


def test_parse_rejects_inconsistent_family():
    cfg = dict(GAMMA_NOR_CFG)
    cfg["family"] = {"coefficients": np.zeros((1, 1, 4, 4)).tolist()}
    with pytest.raises(ConfigError, match="family"):
        parse_config(cfg)


def test_parse_descriptor_kinds(tmp_path):
    cfg = {
        "n": 1,
        "gamma1": {
            "type": "concat",
            "pieces": [
                {"type": "normalization", "which": "gamma_nor"},
                {"type": "reversed", "path": {"type": "normalization", "which": "gamma_nor"}},
            ],
        },
        "gamma2": {
            "type": "symplectic_action",
            "generator": [[[0.0, 0.0], [0.0, 0.0]], [[0.4, 0.1], [0.1, -0.2]]],
            "base": "l1",
        },
    }
    parsed = parse_config(cfg)
    g1, g2 = parsed.path1(), parsed.path2()
    assert g1.n == g2.n == 1


_THETA = [[0.0, 0.2], [0.6, 1.1], [1.0, 2.0]]
_BASIS = [[1.0, 1.0], [0.0, 2.0], [1.0, 2.0], [0.5, -1.5]]  # columns span a Lagrangian plane of R^4
_GENS = [[[0.0] * 4] * 4, np.diag([0.3, -0.2, 0.1, 0.4]).tolist()]
_ROT = {"type": "rotation", "theta": [[0.0, 0.0], [1.0, 1.4]], "frame": "l0"}


def _rot_path():
    return RotatedPath(l0_frame(2), PiecewiseLinear([0.0, 1.0], [0.0, 1.4]))


# descriptor kinds that the benchmark's configs use, each against the same
# path built in Python
@pytest.mark.parametrize(
    "desc, build",
    [
        ({"type": "unitary_diagonal", "phases": [_THETA, [[0.0, -0.5], [1.0, 0.7]]]},
         lambda: UnitaryDiagonalPath([PiecewiseLinear(*np.transpose(_THETA)),
                                      PiecewiseLinear([0.0, 1.0], [-0.5, 0.7])])),
        ({"type": "rotated", "angle": 0.3, "path": _ROT}, lambda: RotatedPath(_rot_path(), 0.3)),
        ({"type": "reparametrized", "phi": [[0.0, 0.0], [0.4, 0.7], [1.0, 1.0]], "path": _ROT},
         lambda: ReparametrizedPath(_rot_path(), PiecewiseLinear([0.0, 0.4, 1.0], [0.0, 0.7, 1.0]))),
        ({"type": "constant", "frame": _BASIS}, lambda: ConstantPath(frame_from_basis(np.array(_BASIS)))),
        ({"type": "rotation", "theta": _THETA, "frame": _BASIS},
         lambda: RotatedPath(frame_from_basis(np.array(_BASIS)), PiecewiseLinear(*np.transpose(_THETA)))),
        ({"type": "symplectic_action", "generator": _GENS, "base": _ROT},
         lambda: SymplecticActionPath(PolynomialAction(np.array(_GENS)), _rot_path())),
    ],
    ids=["unitary_diagonal", "rotated", "reparametrized", "explicit-basis", "rotation-explicit-basis",
         "action-on-a-path"],
)
def test_parsed_descriptor_frames_equal_the_python_path(desc, build):
    cfg = parse_config({"n": 2, "gamma1": desc, "gamma2": {"type": "constant", "frame": "l1"}})
    lams = np.array([0.0, 0.3, 0.55, 1.0])
    # the same class too: "rotation" and "rotated" both build a RotatedPath
    assert type(cfg.path1()) is type(build())
    assert np.array_equal(cfg.path1().frames(lams), build().frames(lams))
    assert np.array_equal(cfg.path2().frames(lams), ConstantPath(l1_frame(2)).frames(lams))


def test_each_configured_path_is_built_once(monkeypatch):
    # parse_config builds every path to validate it, and path1 and path2
    # return that path: each descriptor, nested ones included, is built once
    built = []
    build = config.build_path
    monkeypatch.setattr(config, "build_path", lambda desc, n, where: built.append(where) or build(desc, n, where))
    cfg = parse_config({"n": 2, "gamma1": {"type": "reversed", "path": _ROT},
                        "gamma2": {"type": "constant", "frame": "l1"}})
    assert cfg.path1() is cfg.path1() and cfg.path2() is cfg.path2()
    assert sorted(built) == ["gamma1", "gamma1.path", "gamma2"]
    # a descriptor put in place of the parsed one is built anew
    cfg.gamma2_desc = {"type": "constant", "frame": "l0"}
    assert np.array_equal(cfg.path2().frames([0.5]), ConstantPath(l0_frame(2)).frames([0.5]))


@pytest.mark.parametrize(
    "gamma1, message",
    [
        ({"type": "constant", "frame": "l2"}, "gamma1.frame: unknown frame shorthand 'l2' (use 'l0' or 'l1')"),
        ({"type": "normalization", "which": "gamma"}, "gamma1.which: expected 'gamma_nor' or 'gamma_nor_prime'"),
        ({"type": "concat", "pieces": [{"type": "constant", "frame": "l0"}, {"type": "constant", "frame": "l1"}]},
         "gamma1.pieces: junction 0 mismatch: gap distance 1.000e+00"),
        ({"type": "reparametrized", "phi": [[0.0, 0.0], [1.0, 0.9]], "path": {"type": "constant", "frame": "l0"}},
         "gamma1.phi: reparametrization must fix the endpoints 0 and 1"),
    ],
    ids=["frame-shorthand", "which", "junction", "phi-ends"],
)
def test_cli_rejects_a_bad_descriptor_naming_its_field(gamma1, message, tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", {**GAMMA_NOR_CFG, "gamma1": gamma1})
    assert main(["maslov", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


def test_cli_rejects_an_unreadable_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["sflow", "--config", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot read config file {missing}: ")
    assert captured.out == ""


def test_cli_normalization_values(tmp_path, capsys):
    cfg_a = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    cfg_b = _write(tmp_path, "b.json", PRIME_CFG)
    out_a = str(tmp_path / "ra.json")
    out_b = str(tmp_path / "rb.json")

    assert main(["maslov", "--config", cfg_a, "--out", out_a]) == 0
    assert json.loads(Path(out_a).read_text())["values"]["maslov_index"] == 1
    assert main(["sflow", "--config", cfg_a, "--out", out_a]) == 0
    assert json.loads(Path(out_a).read_text())["values"]["spectral_flow"] == 1

    assert main(["maslov", "--config", cfg_b, "--out", out_b]) == 0
    assert json.loads(Path(out_b).read_text())["values"]["maslov_index"] == -1
    assert main(["sflow", "--config", cfg_b, "--out", out_b]) == 0
    assert json.loads(Path(out_b).read_text())["values"]["spectral_flow"] == -1
    capsys.readouterr()


def test_cli_report_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["maslov", "--config", cfg, "--out", out1]) == 0
    assert main(["maslov", "--config", cfg, "--out", out2]) == 0
    d1 = json.loads(Path(out1).read_text())
    d2 = json.loads(Path(out2).read_text())
    d1.pop("timing_s")
    d2.pop("timing_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # the Maslov side reads no tol, so the report lists none
    assert d1["tolerances"] == {}
    capsys.readouterr()


@pytest.mark.parametrize("which, configured", [("axioms", False), ("clm", False), ("clm", True),
                                               ("hamiltonian", True)])
def test_cli_verify_reports_are_timed(which, configured, tmp_path, capsys):
    argv = ["verify", which, "--out", str(tmp_path / "r.json")]
    argv += ["--config", _write(tmp_path, "a.json", IDENTITY_CFG if which == "hamiltonian" else GAMMA_NOR_CFG)] \
        if configured else ["--count", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "r.json").read_text()
    report = json.loads(out)
    assert report["timing_s"] > 0
    assert ("solver" in report["inputs"]) == configured


def test_cli_spectra_writes_its_report_only_to_out(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    out = tmp_path / "r.json"
    assert main(["spectra", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,mu,multiplicity"
    report = json.loads(out.read_text())
    assert report["values"] == {"rows": len(lines) - 1}
    # eigenvalues are located to the constant MU_TOL, so the report lists no width
    assert report["tolerances"] == {} and report["timing_s"] > 0


def test_cli_sflow_csv_lists_the_branch_eigenvalues(tmp_path, capsys):
    path = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    csv = tmp_path / "branches.csv"
    assert main(["sflow", "--config", path, "--csv", str(csv)]) == 0
    report = json.loads(capsys.readouterr().out)
    cfg = parse_config(path)
    result = spectral_flow(BoundaryValueFamily(cfg.path1(), cfg.path2()))
    assert report["values"]["spectral_flow"] == result.value
    rows = sorted((w.lam, mu, mult) for w in result.branch_data for mu, mult in w.eigenvalues)
    assert rows
    expected = ["lambda,mu,multiplicity"] + [f"{lam:.12g},{mu:.12g},{mult}" for lam, mu, mult in rows]
    assert csv.read_text().splitlines() == expected


def test_cli_eigenvalue_on_a_lower_window_edge_is_in_the_window(tmp_path, capsys):
    # the window is [mu_min, mu_max): -pi/2, an eigenvalue at lambda = 0, is
    # listed, located within MU_TOL above the edge
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "gamma_nor_vs_l1.json")
    csv = tmp_path / "spectra.csv"
    assert main(["spectra", "--config", cfg, "--window", "-1.5707963267948966", "1.0", "--csv", str(csv)]) == 0
    assert capsys.readouterr().err == ""
    assert csv.read_text().splitlines()[:2] == ["lambda,mu,multiplicity", "0,-1.57079632677,1"]


def test_cli_spectra_branches_follow_formulas(tmp_path, capsys):
    cfg = dict(GAMMA_NOR_CFG)
    cfg["lambda_grid"] = 26
    cfg["solver"] = dict(cfg["solver"], mu_window=[-3.0, 3.0])
    path = _write(tmp_path, "a.json", cfg)
    csv = str(tmp_path / "branches.csv")
    assert main(["spectra", "--config", path, "--csv", csv]) == 0
    lines = Path(csv).read_text().strip().splitlines()
    assert lines[0] == "lambda,mu,multiplicity"
    assert len(lines) > 26
    for row in lines[1:]:
        lam, mu, mult = row.split(",")
        lam, mu = float(lam), float(mu)
        branches = [np.pi * lam - np.pi / 2 + k * np.pi for k in range(-3, 4)]
        branches += [np.pi / 2 + k * np.pi for k in range(-3, 3)]
        assert min(abs(mu - b) for b in branches) < 1e-7
        assert int(mult) == 1
    capsys.readouterr()


def test_cli_spectra_empty_window_header_only(tmp_path, capsys):
    cfg = {
        "n": 1,
        "gamma1": {
            "type": "rotation",
            "theta": [[0.0, 0.3], [1.0, 0.3]],
            "frame": "l0",
        },
        "gamma2": {"type": "constant", "frame": "l0"},
        "solver": {"mu_window": [0.5, 1.0]},
        "lambda_grid": 5,
    }
    # spectrum is {0.3 + k pi} for every lambda, so (0.5, 1.0) is empty
    path = _write(tmp_path, "a.json", cfg)
    csv = str(tmp_path / "empty.csv")
    assert main(["spectra", "--config", path, "--csv", csv]) == 0
    assert Path(csv).read_text() == "lambda,mu,multiplicity\n"
    capsys.readouterr()


def test_cli_spectra_shifted_family_offsets_mu(tmp_path, capsys):
    base_cfg = dict(GAMMA_NOR_CFG)
    base_cfg["lambda_grid"] = 7
    delta = 0.1
    shifted_cfg = dict(base_cfg)
    shifted_cfg["family"] = {
        "coefficients": [[np.diag([delta, delta]).tolist()]]
    }
    p1 = _write(tmp_path, "base.json", base_cfg)
    p2 = _write(tmp_path, "shifted.json", shifted_cfg)
    c1, c2 = str(tmp_path / "b.csv"), str(tmp_path / "s.csv")
    assert main(["spectra", "--config", p1, "--csv", c1]) == 0
    assert main(["spectra", "--config", p2, "--csv", c2]) == 0
    rows1 = [r.split(",") for r in Path(c1).read_text().strip().splitlines()[1:]]
    rows2 = [r.split(",") for r in Path(c2).read_text().strip().splitlines()[1:]]
    for lam in {r[0] for r in rows1}:
        mus1 = sorted(float(r[1]) for r in rows1 if r[0] == lam)
        mus2 = sorted(float(r[1]) for r in rows2 if r[0] == lam)
        shifted = [m + delta for m in mus1]
        # ignore branches shifted across the window boundary
        inside = [m for m in shifted if m < 3.04 - 1e-6]
        assert np.allclose(inside, mus2[: len(inside)], atol=1e-7)
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["maslov", "--config", str(bad)]) == 2
    missing_field = _write(tmp_path, "m.json", {"n": 1})
    assert main(["maslov", "--config", missing_field]) == 2
    capsys.readouterr()


def test_cli_verify_axioms_small(tmp_path, capsys):
    assert main(["verify", "axioms", "--count", "2", "--seed", "5"]) == 0
    capsys.readouterr()


def test_cli_verify_gap_small(capsys):
    assert main(["verify", "gap", "--count", "5", "--seed", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("which", _VERIFY_CHOICES)
def test_cli_verify_every_suite_without_config(which, capsys):
    assert main(["verify", which, "--count", "1"]) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["values"]["instances"] >= 1
    # the suites have no default seed of their own: without a config it is 0
    assert report["inputs"]["seed"] == 0


def test_cli_verify_clm_with_config(tmp_path, capsys, monkeypatch):
    # the S = 0 theorem is clm_hamiltonian with S None: its keys, and no
    # fundamental solution built
    def no_solution(*args, **kwargs):
        raise AssertionError("verify clm built a fundamental solution")

    monkeypatch.setattr(hamiltonian, "fundamental_solution", no_solution)
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    assert main(["verify", "clm", "--config", cfg]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["command"] == "verify-clm"
    assert report["values"] == {"spectral_flow": 1, "maslov_transported": 1}


def test_cli_verify_configured_identities(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", IDENTITY_CFG)

    assert main(["verify", "hamiltonian", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "clm-hamiltonian" and rep["passed"]

    assert main(["verify", "three-term", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "three-term" and rep["passed"]

    assert main(["verify", "alpha-beta", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "alpha-beta" and rep["passed"]

    assert main(["verify", "morse", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "morse-index" and rep["passed"]


def test_no_command_passes_a_locator_width_and_mu_tol_reaches_spectra(tmp_path, monkeypatch, capsys):
    # the locator width is the constant MU_TOL: no command passes a keyword
    # to spectrum_window, spectral_flow or maslov_pair, no report lists a
    # width, and a monkeypatched MU_TOL is the width the spectra locator uses
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append((fn.__name__, tuple(sorted(kwargs.items()))))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("maslov_pair", "spectral_flow", "spectrum_window"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    for name in ("maslov_pair", "spectral_flow"):
        monkeypatch.setattr(hamiltonian, name, spy(getattr(hamiltonian, name)))
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    identity = _write(tmp_path, "b.json", IDENTITY_CFG)
    both = {("maslov_pair", ()), ("spectral_flow", ())}
    checked = {"integer_equality": 0}
    cases = [
        (["maslov"], cfg, {("maslov_pair", ())}, {}),
        (["sflow"], cfg, {("spectral_flow", ())}, {}),
        (["spectra"], cfg, {("spectrum_window", ())}, {}),
        (["verify", "clm"], cfg, both, checked),
    ] + [(["verify", which], identity, both, checked)
         for which in ("hamiltonian", "three-term", "alpha-beta", "morse")]
    for argv, path, expected, tolerances in cases:
        calls.clear()
        out = str(tmp_path / "r.json")
        assert main(argv + ["--config", path, "--out", out]) == 0
        assert set(calls) == expected, argv
        report = json.loads(Path(out).read_text())
        assert report["inputs"]["solver"] == GAMMA_NOR_CFG["solver"], argv
        assert report["tolerances"] == tolerances, argv

    widths = []
    locate = specflow._locate

    def spy_locate(fam, lams, mu_min, mu_max):
        # a secant step probes its bracket at x -+ MU_TOL/2 in one detector
        # call, so the width in use is the spacing of such probes
        batch = fam.detector_batch

        def probe(lam, mus):
            gaps = np.abs(np.subtract.outer(mus, mus))
            widths.extend(np.round(gaps[(gaps > 0) & (gaps < 1e-6)], 12).tolist())
            return batch(lam, mus)

        fam.detector_batch = probe
        return locate(fam, lams, mu_min, mu_max)

    monkeypatch.setattr(specflow, "_locate", spy_locate)
    monkeypatch.setattr(specflow, "MU_TOL", 1e-7)
    assert main(["spectra", "--config", cfg, "--csv", str(tmp_path / "s.csv")]) == 0
    assert 1e-7 in widths and 1e-10 not in widths
    capsys.readouterr()


def test_cli_sflow_takes_no_locator_width_from_the_config(tmp_path, capsys):
    # regularization case 83 has a kernel at lambda = 1: located to the
    # width 1e-8, which configs could once set, it read -1.3e-9, below the
    # count's edge -1e-9, and sflow gave 2; located to MU_TOL it counts, and
    # sflow gives the closed form
    g1, _ = _regularization_case(83)
    expected = sum(int(np.floor(p(1.0) / np.pi) - np.floor(p(0.0) / np.pi)) for p in g1.phases)
    assert expected == 3
    path = _write(tmp_path, "a.json", {
        "n": g1.n,
        "gamma1": {"type": "unitary_diagonal", "phases": [p.serialize() for p in g1.phases]},
        "gamma2": {"type": "constant", "frame": "l0"},
        "solver": {"steps": 256},
    })
    assert main(["sflow", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"] == {"spectral_flow": 3}
    assert "tol" not in report["tolerances"]


def test_cli_window_and_depth_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    csv = str(tmp_path / "w.csv")
    assert main(["spectra", "--config", cfg, "--window", "-1.0", "1.0", "--csv", csv]) == 0
    mus = [float(r.split(",")[1]) for r in Path(csv).read_text().strip().splitlines()[1:]]
    assert mus and all(-1.0 < m < 1.0 for m in mus)
    capsys.readouterr()


_CONFIGURED_COMMAND = {
    "clm": "verify-clm",
    "hamiltonian": "clm-hamiltonian",
    "three-term": "three-term",
    "alpha-beta": "alpha-beta",
    "morse": "morse-index",
    "axioms": "verify-axioms",
    "gap": "verify-gap",
}


@pytest.mark.parametrize("which", _VERIFY_CHOICES)
def test_cli_verify_every_choice_with_config(which, tmp_path, capsys):
    # the suites that take no instance from a config read its seed and
    # suite.count; the count keeps them small here
    path = _write(tmp_path, "inst.json", {**IDENTITY_CFG, "suite": {"count": 2}})
    if which == "clm":
        # IDENTITY_CFG sets a family, which the S = 0 theorem does not read
        assert main(["verify", which, "--config", path]) == 2
        assert "verify hamiltonian" in capsys.readouterr().err
        return
    assert main(["verify", which, "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == _CONFIGURED_COMMAND[which]
    assert report["passed"]


def test_cli_verify_clm_rejects_a_configured_family(tmp_path, capsys):
    # gamma_nor vs l1 with S = 2 pi lambda I: the spectral flow is 3, so
    # checking the S = 0 theorem (1 = 1) would pass on the wrong instance
    two_pi = 2.0 * np.pi
    cfg = {**GAMMA_NOR_CFG, "family": {"coefficients": [
        [[[0.0, 0.0], [0.0, 0.0]]],
        [[[two_pi, 0.0], [0.0, two_pi]]],
    ]}}
    path = _write(tmp_path, "family.json", cfg)
    assert main(["sflow", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["spectral_flow"] == 3
    assert main(["verify", "hamiltonian", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["values"] == {"spectral_flow": 3, "maslov_transported": 3}
    assert main(["verify", "clm", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: family" in captured.err and "verify hamiltonian" in captured.err


def _exit_code(argv):
    """main's exit status, also when argparse rejects the command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (command, flag) pairs the parser no longer accepts, and flags a verify
# mode does not read; CFG and IDENTITY stand for the two configs below
_UNREAD_FLAGS = [
    ["maslov", "--config", "CFG", "--csv", "x.csv"],
    ["maslov", "--config", "CFG", "--tol", "1e-9"],
    ["maslov", "--config", "CFG", "--seed", "3"],
    ["maslov", "--config", "CFG", "--steps", "64"],
    ["maslov", "--config", "CFG", "--window", "-1", "1"],
    ["maslov", "--config", "CFG", "--max-depth", "30"],
    ["sflow", "--config", "CFG", "--seed", "3"],
    ["sflow", "--config", "CFG", "--tol", "1e-9"],
    ["sflow", "--config", "CFG", "--max-depth", "30"],
    ["sflow", "--config", "CFG", "--window", "-1", "1"],
    ["spectra", "--config", "CFG", "--seed", "3"],
    ["spectra", "--config", "CFG", "--tol", "1e-9"],
    ["spectra", "--config", "CFG", "--max-depth", "30"],
    ["verify", "clm", "--config", "CFG", "--csv", "x.csv"],
    ["verify", "clm", "--config", "CFG", "--window", "-1", "1"],
    ["verify", "axioms", "--count", "1", "--steps", "64"],
    ["verify", "gap", "--count", "1", "--tol", "1e-9"],
    ["verify", "clm", "--count", "1", "--tol", "1e-9"],
    ["verify", "clm", "--count", "1", "--max-depth", "30"],
    ["verify", "clm", "--count", "1", "--steps", "64"],
    ["verify", "clm", "--config", "CFG", "--seed", "3"],
    ["verify", "clm", "--config", "CFG", "--tol", "1e-9"],
    ["verify", "hamiltonian", "--config", "IDENTITY", "--count", "2"],
    ["verify", "hamiltonian", "--config", "IDENTITY", "--tol", "1e-9"],
    ["verify", "morse", "--config", "IDENTITY", "--max-depth", "30"],
    ["verify", "morse", "--config", "IDENTITY", "--seed", "3"],
]


@pytest.mark.parametrize("argv", _UNREAD_FLAGS, ids=" ".join)
def test_cli_rejects_flags_the_check_does_not_read(argv, tmp_path, capsys):
    paths = {"CFG": _write(tmp_path, "a.json", GAMMA_NOR_CFG), "IDENTITY": _write(tmp_path, "b.json", IDENTITY_CFG)}
    flag = [a for a in argv if a.startswith("--") and a != "--config"][-1]
    assert _exit_code([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "solver, field",
    [({"steps": 7}, "steps"), ({"steps": 64.0}, "steps"), ({"tol": 0}, "tol"), ({"tol": -1e-8}, "tol"),
     ({"max_depth": -1}, "max_depth"), ({"mu_window": [1.0, -1.0]}, "mu_window")],
)
def test_parse_rejects_invalid_solver_settings(solver, field):
    with pytest.raises(ConfigError, match=f"solver.{field}"):
        parse_config({**GAMMA_NOR_CFG, "solver": solver})
    if field in ("tol", "max_depth"):
        # no longer settings: the locator width and the depth caps are
        # constants of the library, so a config naming them is refused
        with pytest.raises(ConfigError, match=f"solver.{field}: unknown solver setting"):
            parse_config({**GAMMA_NOR_CFG, "solver": solver})
        with pytest.raises(TypeError, match=field):
            replace(SolverSettings(), **solver)
    else:
        with pytest.raises(ConfigError, match=f"solver.{field}"):
            replace(SolverSettings(), **solver)


@pytest.mark.parametrize("key", ["max_depth", "stpes", "tol"])
def test_an_unknown_solver_key_exits_2_naming_it(key, tmp_path, capsys):
    # a dropped setting or a misspelt one is refused, not silently ignored
    cfg = _write(tmp_path, "a.json", {**GAMMA_NOR_CFG, "solver": dict(GAMMA_NOR_CFG["solver"], **{key: 40})})
    assert _exit_code(["sflow", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: solver.{key}: unknown solver setting (known: steps, mu_window)\n"
    )
    assert captured.out == ""


_CONFIG_KEYS = "n, gamma1, gamma2, family, alpha, beta, solver, seed, lambda_grid, suite"


@pytest.mark.parametrize(
    "argv, payload, err",
    [
        # a misspelt family used to leave S = 0, and verify clm checked that
        # theorem and exited 0
        (["verify", "clm"], {**{k: v for k, v in IDENTITY_CFG.items() if k != "family"},
                             "famliy": IDENTITY_CFG["family"]},
         f"config error: famliy: unknown config key (known: {_CONFIG_KEYS})\n"),
        # a misspelt suite count used to run the default 50 instances
        (["verify", "axioms"], {"n": 1, "suite": {"cuont": 1}},
         "config error: suite.cuont: unknown suite setting (known: count)\n"),
    ],
    ids=["top-level", "suite"],
)
def test_a_misspelt_config_key_exits_2_naming_it(argv, payload, err, tmp_path, capsys):
    assert _exit_code(argv + ["--config", _write(tmp_path, "a.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [("sflow", "--csv"), ("spectra", "--csv"), ("maslov", "--out")])
def test_an_unwritable_output_path_is_a_one_line_error(command, flag, tmp_path, capsys):
    # a usage error, like a bad flag: exit 2 with one line, no traceback
    target = tmp_path / "missing" / "x.out"
    argv = [command, "--config", _write(tmp_path, "a.json", GAMMA_NOR_CFG), flag, str(target)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, config_steps, field",
    [
        (["sflow", "--steps", "7"], 256, "steps"),
        (["spectra", "--window", "1", "-1"], 256, "mu_window"),
        (["sflow"], 63, "steps"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_cli_invalid_solver_settings_exit_2(argv, config_steps, field, tmp_path, capsys):
    # an invalid override names its flag, an invalid config value its field
    cfg = _write(tmp_path, "a.json", {**GAMMA_NOR_CFG, "solver": dict(GAMMA_NOR_CFG["solver"], steps=config_steps)})
    assert _exit_code(argv + ["--config", cfg]) == 2
    captured = capsys.readouterr()
    name = next((a for a in argv if a.startswith("--")), f"solver.{field}")
    assert captured.err.startswith(f"config error: {name}: must be ")
    assert captured.out == ""


_ROTATION = {"type": "rotation", "theta": [[0.0, 0.0], [1.0, 1.0]], "frame": "l0"}
_ACTION = {"type": "symplectic_action", "generator": [[[0.0, 0.0], [0.0, 0.0]], [[0.4, 0.1], [0.1, -0.2]]],
           "base": "l1"}


# a boolean where an integer belongs and a non-finite number anywhere exit 2
# naming the field, before any computation
@pytest.mark.parametrize(
    "command, fields, name",
    [
        ("maslov", {"n": True}, "n"),
        ("maslov", {"gamma1": {**_ROTATION, "theta": [[0.0, 0.0], [1.0, float("nan")]]}}, "gamma1.theta"),
        ("maslov", {"gamma2": {**_ACTION, "generator": [[[0.0, 0.0], [0.0, 0.0]], [[float("nan"), 0.1], [0.1, 0.0]]]}},
         "gamma2.generator"),
        ("maslov", {"gamma1": {"type": "rotated", "angle": float("inf"), "path": _ROTATION}}, "gamma1.angle"),
        ("maslov", {"gamma1": {"type": "rotated", "angle": True, "path": _ROTATION}}, "gamma1.angle"),
        ("sflow", {"family": {"coefficients": [[[[0.4, float("nan")], [0.1, -0.3]]]]}}, "family"),
    ],
    ids=["n-true", "nan-theta", "nan-generator", "infinite-angle", "boolean-angle", "nan-family"],
)
def test_cli_rejects_a_boolean_or_non_finite_config_value(command, fields, name, tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", {**GAMMA_NOR_CFG, **fields})
    assert _exit_code([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {name}: ")
    assert captured.out == ""


def test_cli_rejects_a_family_coefficient_that_is_not_symmetric(tmp_path, capsys):
    # the family's own mirroring of upper triangles must not hide a wrong
    # lower triangle; rounding-level asymmetry passes, as for generators
    bad = {"family": {"coefficients": [[[[0.4, 0.1], [5.0, -0.3]]]]}}
    assert _exit_code(["sflow", "--config", _write(tmp_path, "a.json", {**GAMMA_NOR_CFG, **bad})]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: family.coefficients: matrices must be symmetric\n"
    assert captured.out == ""
    near = {"family": {"coefficients": [[[[0.4, 0.1], [0.1 + 1e-13, -0.3]]]]}}
    cfg = parse_config({**GAMMA_NOR_CFG, **near})
    assert cfg.family.coeffs[0, 0, 1, 0] == 0.1


# a suite count is an integer >= 1 and a seed an integer >= 0, whether a
# flag or the config file sets it; CFG stands for a config that sets the field
_BAD_COUNT_OR_SEED = [
    (["verify", "clm", "--count", "-3"], None, "--count"),
    (["verify", "axioms", "--count", "0"], None, "--count"),
    (["verify", "axioms", "--config", "CFG"], {"suite": {"count": "abc"}}, "suite.count"),
    (["verify", "gap", "--config", "CFG"], {"suite": {"count": 0}}, "suite.count"),
    (["verify", "gap", "--config", "CFG"], {"suite": {"count": 2.0}}, "suite.count"),
    (["verify", "axioms", "--seed", "-5"], None, "--seed"),
    (["verify", "axioms", "--config", "CFG"], {"seed": "abc"}, "seed"),
    (["verify", "gap", "--config", "CFG"], {"seed": -1}, "seed"),
    (["verify", "gap", "--config", "CFG"], {"seed": 1.5}, "seed"),
]


@pytest.mark.parametrize("argv, fields, name", _BAD_COUNT_OR_SEED,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cli_rejects_an_invalid_suite_count_or_seed(argv, fields, name, tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", {**PRIME_CFG, **(fields or {})})
    assert main([cfg if a == "CFG" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {name}: must be an integer >= ")
    assert captured.out == ""


def test_cli_count_and_seed_reach_the_suite(tmp_path, monkeypatch, capsys):
    calls = []
    check = cli._VERIFY["axioms"]
    monkeypatch.setitem(cli._VERIFY, "axioms", replace(
        check, suite=lambda **kw: calls.append(kw) or check.suite(**kw)))
    assert main(["verify", "axioms", "--count", "2", "--seed", "0"]) == 0
    cfg = _write(tmp_path, "a.json", {**PRIME_CFG, "seed": 4, "suite": {"count": 1}})
    assert main(["verify", "axioms", "--config", cfg]) == 0
    capsys.readouterr()
    assert calls == [{"count": 2, "seed": 0}, {"count": 1, "seed": 4}]


@pytest.mark.parametrize("suite", [theorem_suite, hamiltonian_suite, three_term_suite, alpha_beta_suite,
                                   morse_suite, axiom_suite, gap_suite], ids=lambda f: f.__name__)
@pytest.mark.parametrize("count", [0, -2])
def test_a_suite_of_fewer_than_one_instance_is_rejected_naming_count(suite, count):
    # an empty suite would pass vacuously; the CLI rejects such a count first
    with pytest.raises(ValueError, match=f"^count must be at least 1, got {count}$"):
        suite(count, 1)


def _dump_reports():
    """tools/dump_reports.py, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "tools" / "dump_reports.py"
    spec = importlib.util.spec_from_file_location("dump_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_reports_usage_errors_exit_2_and_write_nothing(tmp_path, capsys):
    dump = _dump_reports()
    assert dump.main([]) == 2
    assert capsys.readouterr().err == "usage: dump_reports.py OUTDIR\n"
    out = tmp_path / "reports"
    out.mkdir()
    assert dump.main([str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"OUTDIR {out} exists" in err
    assert list(out.iterdir()) == []


def _readme_flag_table() -> dict:
    """{command: [flags]} from the rows of the README's command-line table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|\s*$", section, flags=re.M)
    return {cmd: re.findall(r"`(--[\w-]+)`", cells) for cmd, cells in rows}


def test_readme_flag_table_matches_the_parser():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert _readme_flag_table() == parsed
    assert sum(len(flags) for flags in parsed.values()) == 16


# every command that reads --steps, the verify checks in suite mode and with
# a configured instance; the bound is the one MIN_STEPS of the shooting and
# of fundamental_solution
_TOO_FEW_STEPS = [
    ["sflow", "--config", "CFG", "--steps", "32"],
    ["spectra", "--config", "CFG", "--steps", "63"],
    ["verify", "hamiltonian", "--count", "1", "--steps", "32"],
    ["verify", "three-term", "--count", "1", "--steps", "32"],
    ["verify", "alpha-beta", "--count", "1", "--steps", "63"],
    ["verify", "morse", "--count", "1", "--steps", "32"],
    ["verify", "hamiltonian", "--config", "IDENTITY", "--steps", "32"],
    ["verify", "three-term", "--config", "IDENTITY", "--steps", "32"],
    ["verify", "alpha-beta", "--config", "IDENTITY", "--steps", "32"],
    ["verify", "morse", "--config", "IDENTITY", "--steps", "32"],
]


@pytest.mark.parametrize("argv", _TOO_FEW_STEPS, ids=" ".join)
def test_cli_rejects_too_few_steps_for_fundamental_solutions(argv, tmp_path, capsys):
    paths = {"CFG": _write(tmp_path, "a.json", GAMMA_NOR_CFG), "IDENTITY": _write(tmp_path, "b.json", IDENTITY_CFG)}
    assert hamiltonian.MIN_STEPS is specflow.MIN_STEPS == 64
    assert _exit_code([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: --steps: must be an integer >= 64, got {argv[-1]}\n"
    assert captured.out == ""


def test_cli_names_configured_steps_below_the_fundamental_solution_bound(tmp_path, capsys):
    cfg = {**IDENTITY_CFG, "solver": dict(IDENTITY_CFG["solver"], steps=32)}
    assert main(["verify", "hamiltonian", "--config", _write(tmp_path, "b.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: solver.steps: must be an integer >= 64, got 32\n"
    # the library holds the shooting and the fundamental solutions to it too
    cfg = parse_config({**cfg, "solver": {}})
    with pytest.raises(ValueError, match=f"at least {hamiltonian.MIN_STEPS}"):
        hamiltonian.fundamental_solution(cfg.family, 0.5, hamiltonian.MIN_STEPS - 1)
    with pytest.raises(ValueError, match=f"at least {specflow.MIN_STEPS}"):
        BoundaryValueFamily(cfg.path1(), cfg.path2(), cfg.family, steps=specflow.MIN_STEPS - 1)


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "maslovflow", "--help"], capture_output=True, text=True, env=env, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: maslovflow")
