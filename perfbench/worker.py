"""One workload in one process: build the inputs, run the fixed list, check it.

Prints one JSON object as its last line.  Started by run.py; see README.md.
"""

import os

# The program's matrices are 2x2 to 6x6: extra BLAS/OpenMP threads only
# contend for the cores.  This must happen before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MAX_REPORTED = 5


def _import_program():
    """The maslovflow package of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import maslovflow
        import maslovflow.config
        import maslovflow.hamiltonian
        import maslovflow.maslov
        import maslovflow.specflow
    except ImportError as err:
        sys.stderr.write(f"cannot import maslovflow from {SRC}: {err}\n")
        raise SystemExit(2)
    if not os.path.abspath(maslovflow.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"maslovflow resolved outside {SRC}: {maslovflow.__file__}\n")
        raise SystemExit(2)
    return maslovflow


def _source_digest() -> str:
    """Hash of the program and benchmark sources, to key stored trace counts."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "maslovflow"), HERE):
        for fname in sorted(os.listdir(base)):
            if fname.endswith(".py"):
                with open(os.path.join(base, fname), "rb") as fh:
                    h.update(fname.encode() + fh.read())
    return h.hexdigest()[:16]


def _operations(workload: str, items: list, mf, wl):
    """(run, check) closures, one pair per operation of the fixed list."""
    ops = []
    if workload == "clm-hamiltonian":
        for item in items:
            prepared = wl.clm_prepare(item, mf)
            ops.append((lambda p=prepared: wl.clm_run(p, mf), lambda out, it=item: wl.clm_check(it, out)))
    elif workload == "pair-axioms":
        for item in items:
            prepared = wl.axiom_prepare(item, mf)
            ops.append((lambda p=prepared, it=item: wl.axiom_run(p, mf, it),
                        lambda out, it=item: wl.axiom_check(it, out)))
    else:
        prepared = [wl.spectra_prepare(item, mf) for item in items]
        for i, lam in wl.spectra_windows(items):
            ops.append((lambda p=prepared[i], lam=lam: wl.spectra_run(p, mf, lam),
                        lambda out, it=items[i], lam=lam: wl.spectra_check(it, lam, out)))
    return ops


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="stop once the inputs are built")
    args = p.parse_args()

    mf = _import_program()
    sys.path.insert(0, HERE)
    import speed
    import tracing
    import workloads as wl

    items = wl.inputs(args.workload, args.seed, args.seconds)
    ops = _operations(args.workload, items, mf, wl)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # the traced run reports span times, which the probe would inflate
    tracer = tracing.Tracer().install() if args.trace else None
    probe = None if args.trace else speed.SpeedProbe().start()
    outputs = []
    t0 = time.perf_counter()
    for run, _ in ops:
        try:
            outputs.append(run())
        except Exception as err:  # a failed operation; the run goes on
            outputs.append(err)
    if probe is not None:
        probe.stop()
    measured = time.perf_counter() - t0 - (0.0 if probe is None else probe.spent)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = unexplained = 0
    for k, ((_, check), out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            verdict = ("wrong", f"raised {type(out).__name__}: {out}")
        else:
            verdict = check(out)
        if verdict is None:
            continue
        failed += 1
        unexplained += verdict[0] != "edge-miss"
        if failed <= MAX_REPORTED:
            sys.stderr.write(f"operation {k} failed ({verdict[0]}): {verdict[1]}\n")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.seconds:g}s"
    with open(os.path.join(OUT, f"inputs-{tag}.json"), "w") as fh:
        json.dump(items, fh)
    result = {"ready": ready, "attempted": len(ops), "failed": failed, "correct": unexplained == 0,
              "measured_s": measured, "peak_rss_mb": peak_rss_mb}
    if probe is not None:
        result["speed"] = probe.speed()
        result["speed_samples"] = len(probe.samples)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        counts = tracing.span_counts(tracer.arrays()["name"])
        errors = tracing.coverage_errors(args.workload, counts)
        repeat = {k: v for k, v in result["layers"].items() if k.endswith((".calls", ".mu_evals"))}
        stored = os.path.join(OUT, f"counts-{tag}-{_source_digest()}.json")
        if os.path.exists(stored):
            with open(stored) as fh:
                before = json.load(fh)
            errors += [f"{k}: {before.get(k)} in an earlier traced run, {v} now"
                       for k, v in repeat.items() if before.get(k) != v]
        else:
            with open(stored, "w") as fh:
                json.dump(repeat, fh, indent=1, sort_keys=True)
        tracer.save(os.path.join(OUT, f"spans-{tag}.npz"))
        for e in errors:
            sys.stderr.write(f"trace check: {e}\n")
        result["correct"] = result["correct"] and not errors
        result["spans"] = len(tracer.name)
        result["overhead_s"] = len(tracer.name) * tracing.span_cost()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
