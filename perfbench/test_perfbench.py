"""Fast checks of the benchmark's own arithmetic, references and inputs."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import references as ref  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _spans(rows):
    """rows of (span name, start, end, parent index)."""
    return {
        "name": [tracing.SPAN_NAMES.index(r[0]) for r in rows],
        "start": [r[1] for r in rows],
        "end": [r[2] for r in rows],
        "parent": [r[3] for r in rows],
    }


def test_self_time_subtracts_direct_children():
    m = tracing.layer_metrics(**_spans([
        ("specflow.spectral_flow", 0.0, 10.0, -1),
        ("paths.frame", 1.0, 4.0, 0),
        ("symplectic.validate", 2.0, 3.0, 1),
        ("paths.frame", 5.0, 9.0, 0),
        ("paths.frame", 6.0, 7.5, 3),
    ]))
    assert m["specflow.spectral_flow.self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert m["paths.frame.self_s"] == pytest.approx((3.0 - 1.0) + (4.0 - 1.5) + 1.5)
    assert m["paths.frame.calls"] == 3
    assert m["symplectic.validate.s"] == pytest.approx(1.0)


def test_inclusive_time_counts_recursion_once():
    m = tracing.layer_metrics(**_spans([
        ("linalg.expm", 0.0, 4.0, -1),
        ("linalg.expm", 1.0, 3.0, 0),
        ("families.eval", 5.0, 6.0, -1),
        ("linalg.expm", 5.2, 5.7, 2),
    ]))
    assert m["linalg.expm.s"] == pytest.approx(4.0 + 0.5)
    assert m["linalg.expm.calls"] == 3
    assert m["families.eval.s"] == pytest.approx(1.0)


def test_tracer_records_spans_and_restores_the_program():
    from maslovflow import maslov, paths
    from maslovflow.paths import ConstantPath, gamma_nor
    from maslovflow.symplectic import l1_frame

    before = (maslov.maslov_pair, paths.LagrangianPath.frame)
    tracer = tracing.Tracer().install()
    try:
        assert maslov.maslov_pair(gamma_nor(1), ConstantPath(l1_frame(1))) == 1
    finally:
        tracer.uninstall()
    assert (maslov.maslov_pair, paths.LagrangianPath.frame) == before
    counts = tracing.span_counts(tracer.arrays()["name"])
    assert counts["maslov.maslov_pair"] >= 1 and counts["paths.frame"] > 0
    assert counts["specflow.detector"] == 0
    assert 0.0 <= tracing.span_cost(2000) < 1e-3


def test_walls_check_rejects_a_dropped_double_eigenvalue():
    lo, hi = wl.WALLS["window"]
    reach = ref.scan_step(wl.WALLS["c"])
    want = ref.walls_spectrum(wl.WALLS["c"], 2, 0.5, lo, hi)
    exact = [(mu, 2) for mu in sorted(set(want))]
    assert ref.compare_spectrum(exact, want, lo, hi, reach) is None
    dropped = exact[:3] + exact[4:]
    assert ref.compare_spectrum(dropped, want, lo, hi, reach)[0] == "wrong"
    # the same double eigenvalue dropped within a scan step of the edge is the
    # known window-edge miss
    at_edge = ref.walls_spectrum(wl.WALLS["c"], 2, 1.0, lo, hi)
    found = [(mu, 2) for mu in sorted(set(at_edge)) if mu < hi - reach]
    assert ref.compare_spectrum(found, at_edge, lo, hi, reach)[0] == "edge-miss"


def test_scalar_check_rejects_a_shifted_eigenvalue():
    f = np.array([[0.4, -0.7], [0.3, 0.0], [0.0, 0.2]])
    lo, hi = -7.9, 8.3
    want = ref.scalar_spectrum(f, 2, 0.3, lo, hi)
    exact = [(mu, 1) for mu in want]
    assert ref.compare_spectrum(exact, want, lo, hi, 0.1) is None
    shifted = list(exact)
    shifted[2] = (shifted[2][0] + 1e-3, 1)
    assert ref.compare_spectrum(shifted, want, lo, hi, 0.1)[0] == "wrong"


def test_general_check_confirms_by_integration_and_rejects_a_shifted_eigenvalue():
    # small enough that the min-max bounds pin the count
    f = 0.05 * np.array([[0.4, -0.7], [0.3, 0.0], [0.0, 0.2]])
    coeffs = f[:, :, None, None] * np.eye(4)
    lo, hi, lam = -5.1, 6.2, 0.3
    exact = [(mu, 1) for mu in ref.scalar_spectrum(f, 2, lam, lo, hi)]
    assert ref.check_general_window(wl.NOR, wl.L1, coeffs, 2, lam, lo, hi, exact) is None
    shifted = list(exact)
    shifted[1] = (shifted[1][0] + 1e-2, 1)
    assert ref.check_general_window(wl.NOR, wl.L1, coeffs, 2, lam, lo, hi, shifted)[0] == "wrong"
    assert ref.check_general_window(wl.NOR, wl.L1, coeffs, 2, lam, lo, hi, exact[1:])[0] == "wrong"


def test_clm_check_rejects_a_sign_flipped_integer():
    assert ref.check_clm({"spectral_flow": -1, "maslov_transported": -1}, -1) is None
    assert ref.check_clm({"spectral_flow": 1, "maslov_transported": -1}, None)[0] == "wrong"
    assert ref.check_clm({"spectral_flow": 1, "maslov_transported": 1}, -1)[0] == "wrong"


def test_axiom_check_rejects_a_sign_flipped_integer():
    good = {"nor": 1, "nor_prime": -1, "transversal": 0, "concat_whole": 1, "concat_first": 2,
            "concat_second": -1, "base": 1, "reparametrized": 1, "swapped": -1, "acted": 1,
            "reversed": -1, "regularized": 1}
    assert ref.check_axioms(good) is None
    assert ref.check_axioms(dict(good, reversed=1))[0] == "wrong"


@pytest.mark.parametrize("workload", sorted(wl.INPUTS))
def test_inputs_follow_the_seed_in_whole_rounds(workload):
    one = wl.INPUTS[workload](3, 1)
    assert json.dumps(wl.INPUTS[workload](3, 1)) == json.dumps(one)
    assert json.dumps(wl.INPUTS[workload](4, 1)) != json.dumps(one)
    assert len(wl.INPUTS[workload](3, 2)) == 2 * len(one)


def test_walls_windows_do_not_depend_on_the_seed():
    def walls(seed):
        return [it for it in wl.spectra_inputs(seed, 2) if it["kind"] == "walls"]

    assert json.dumps(walls(1)) == json.dumps(walls(2))


def test_speed_is_the_mean_reference_ratio_and_tolerates_a_stretched_sample():
    ref_s = speed.REFERENCE_KERNEL_S
    assert speed.speed([ref_s] * 4) == pytest.approx(1.0)
    assert speed.speed([2 * ref_s] * 4) == pytest.approx(0.5)
    # one sample preempted for 100 kernels moves the speed by a quarter, not 25-fold
    assert speed.speed([ref_s] * 3 + [100 * ref_s]) == pytest.approx(0.7525)


def test_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval=0.02).start()
    t_end = time.perf_counter() + 30.0
    while len(probe.samples) < 3 and time.perf_counter() < t_end:
        pass
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the first sample is taken before the timer starts
    assert len(probe.samples) >= 3 and probe.spent > 0.0
    assert probe.speed() > 0.0
