"""Benchmark of maslovflow: fixed work per workload, one fresh process per run.

    python3 perfbench/run.py --workload clm-hamiltonian --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics (setup_s, instances_per_s,
peak_rss_mb); with --trace 1 the per-layer metrics of a traced run.  The last
line of standard output is one JSON object.  See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("clm-hamiltonian", "pair-axioms", "spectra-sweep")
# Extra processes that only set up; with the measured process they give the
# median set-up time.
SETUP_PROBES = 2
BUDGET_S = 170.0


def _run_worker(cmd, deadline: float) -> dict:
    """Run one worker to its end and return its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("time budget exhausted before the workload ran")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker exceeded the {BUDGET_S:.0f} s budget and was stopped\n")
        raise SystemExit(1)
    if proc.returncode != 0:
        sys.stderr.write(f"worker failed with exit code {proc.returncode}\n")
        raise SystemExit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write("worker printed no result\n")
        raise SystemExit(1)
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "maslovflow", "__init__.py")):
        sys.stderr.write(f"no maslovflow sources under {ROOT}/src; run from a checkout of the repository\n")
        return 2

    # a terminated launcher still stops and reaps its worker (subprocess.run kills on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            launched = time.time()
            setups.append(_run_worker(cmd + ["--setup-only"], deadline)["ready"] - launched)
    launched = time.time()
    res = _run_worker(cmd, deadline)
    setups.append(res["ready"] - launched)

    if args.trace:
        metrics = {k: _metric(v, "count" if k.endswith((".calls", ".mu_evals")) else "s")
                   for k, v in res["layers"].items()}
        print(f"traced measured phase: {res['measured_s']:.3f} s over {res['spans']} spans; the wrappers "
              f"add about {res['overhead_s']:.3f} s ({100 * res['overhead_s'] / res['measured_s']:.1f}%)")
    else:
        # the measured phase at the reference machine speed (speed.py): wall time x speed
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "instances_per_s": _metric(res["attempted"] / (res["measured_s"] * res["speed"]), "1/s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        print(f"measured phase: {res['measured_s']:.3f} s of wall time at machine speed {res['speed']:.3f} "
              f"({res['speed_samples']} probes), {res['attempted'] / res['measured_s']:.6g} instances "
              f"per wall second; set-up samples: " + ", ".join(f"{s:.3f}" for s in setups))
    print(f"{args.workload} seed {args.seed}: {res['attempted']} attempted, {res['failed']} failed, "
          f"correct {res['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
