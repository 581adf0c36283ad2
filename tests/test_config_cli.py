"""Tests for the JSON configuration schema and the command line interface."""

import json

import numpy as np
import pytest

from maslovflow.cli import _VERIFY_CHOICES, main
from maslovflow.config import ConfigError, parse_config

GAMMA_NOR_CFG = {
    "n": 1,
    "gamma1": {"type": "normalization", "which": "gamma_nor"},
    "gamma2": {"type": "constant", "frame": "l1"},
    "solver": {"steps": 256, "tol": 1e-8, "max_depth": 40, "mu_window": [-3.04, 3.04]},
    "seed": 0,
    "lambda_grid": 21,
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
    rebuilt = parse_config({"n": 1, "gamma1": g1.descriptor(), "gamma2": g2.descriptor()})
    assert rebuilt.path1().n == 1


def test_cli_normalization_values(tmp_path, capsys):
    cfg_a = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    cfg_b = _write(tmp_path, "b.json", PRIME_CFG)
    out_a = str(tmp_path / "ra.json")
    out_b = str(tmp_path / "rb.json")

    assert main(["maslov", "--config", cfg_a, "--out", out_a]) == 0
    assert json.loads(open(out_a).read())["values"]["maslov_index"] == 1
    assert main(["sflow", "--config", cfg_a, "--out", out_a]) == 0
    assert json.loads(open(out_a).read())["values"]["spectral_flow"] == 1

    assert main(["maslov", "--config", cfg_b, "--out", out_b]) == 0
    assert json.loads(open(out_b).read())["values"]["maslov_index"] == -1
    assert main(["sflow", "--config", cfg_b, "--out", out_b]) == 0
    assert json.loads(open(out_b).read())["values"]["spectral_flow"] == -1
    capsys.readouterr()


def test_cli_report_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["maslov", "--config", cfg, "--out", out1]) == 0
    assert main(["maslov", "--config", cfg, "--out", out2]) == 0
    d1 = json.loads(open(out1).read())
    d2 = json.loads(open(out2).read())
    d1.pop("timing_s")
    d2.pop("timing_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    capsys.readouterr()


def test_cli_spectra_branches_follow_formulas(tmp_path, capsys):
    cfg = dict(GAMMA_NOR_CFG)
    cfg["lambda_grid"] = 26
    cfg["solver"] = dict(cfg["solver"], mu_window=[-3.0, 3.0])
    path = _write(tmp_path, "a.json", cfg)
    csv = str(tmp_path / "branches.csv")
    assert main(["spectra", "--config", path, "--csv", csv]) == 0
    lines = open(csv).read().strip().splitlines()
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
    assert open(csv).read() == "lambda,mu,multiplicity\n"
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
    rows1 = [r.split(",") for r in open(c1).read().strip().splitlines()[1:]]
    rows2 = [r.split(",") for r in open(c2).read().strip().splitlines()[1:]]
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


def test_cli_verify_clm_with_config(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    assert main(["verify", "clm", "--config", cfg]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["values"] == {"maslov": 1, "sfl": 1}


def test_cli_verify_configured_identities(tmp_path, capsys):
    cfg = dict(GAMMA_NOR_CFG)
    cfg["family"] = {
        "coefficients": [
            [[[0.4, 0.1], [0.1, -0.3]]],
            [[[0.6, 0.0], [0.0, 0.6]]],
        ]
    }
    cfg["alpha"] = [[0.0, 0.5], [1.0, 0.0]]
    cfg["beta"] = [[0.0, 0.5], [1.0, 1.0]]
    path = _write(tmp_path, "inst.json", cfg)

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


def test_cli_window_and_depth_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", GAMMA_NOR_CFG)
    csv = str(tmp_path / "w.csv")
    assert main(["spectra", "--config", cfg, "--window", "-1.0", "1.0", "--csv", csv,
                 "--max-depth", "30"]) == 0
    mus = [float(r.split(",")[1]) for r in open(csv).read().strip().splitlines()[1:]]
    assert mus and all(-1.0 < m < 1.0 for m in mus)
    capsys.readouterr()
