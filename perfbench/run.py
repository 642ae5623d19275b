"""Closed-loop NMPC benchmark for colnmpc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads' inputs are fixed: --seed
is recorded in the result stamp and the trace file name, and the work
does not depend on it.  The untraced run (--trace 0) repeats set-up plus
episode until S seconds have passed (at least once).  Before every
episode the workload is set up for at least SETUP_BATCH_SECONDS.  Times
are CPU seconds of this single-threaded process (time.process_time),
each scaled to the baseline host's speed by the reference samples taken
around it (reference.py); setup_s is the median over the set-up batches
of their median set-up, ctl_s the median over the episodes.  The traced
run (--trace 1) runs set-up plus one episode untraced, traced, and
untraced again, and reports the per-layer metrics plus the tracing
overhead in raw CPU seconds; the spans go to
.perfbench/trace-<workload>-<seed>.npz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A failed correctness check sets
correct to false and makes the exit code 1.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_BATCH_SECONDS = 0.5


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "colnmpc", "__init__.py")):
        sys.exit(f"error: colnmpc sources not found under {src}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stamp(args, wl):
    import numpy
    import scipy
    import colnmpc
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_sets_inputs": False,
        "kernel_backend": colnmpc.KERNEL_BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "ocp_spec": dataclasses.asdict(wl.SPEC),
        "settings": wl.settings(args.workload),
    }


def run_untraced(args, wl):
    from reference import REFERENCE_S, SpeedProbe
    setup, episode = wl.WORKLOADS[args.workload]
    probe = SpeedProbe()
    setup_times, setup_scaled, results = [], [], []
    t_start = time.perf_counter()
    while not results or time.perf_counter() - t_start < args.seconds:
        # set-ups spread over the run like the episodes, each batch
        # between two reference samples
        ref0 = probe(force=True)
        batch = []
        t_batch = time.perf_counter()
        while (not batch
               or time.perf_counter() - t_batch < SETUP_BATCH_SECONDS):
            c0 = time.process_time()
            state = setup(wl.NULL_TRACER)
            batch.append(time.process_time() - c0)
        setup_times += batch
        setup_scaled.append(statistics.median(batch) * REFERENCE_S
                            / ((ref0 + probe(force=True)) / 2))
        results.append(episode(state, probe=probe))
    first = results[0]
    checks = dict(first.checks)
    checks["episodes_identical"] = all(first.same(r) for r in results)
    # Each period's CPU time, scaled by the reference samples around it
    # to the baseline host's speed.
    ctl_scaled = [sum(t * REFERENCE_S / ref
                      for t, ref in zip(r.ctl_s, r.ref_s))
                  for r in results]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ctl_s": (statistics.median(ctl_scaled), "s"),
        "err": (first.err, "1"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    info = {"episodes": len(results), "setups": len(setup_times),
            "periods_per_episode": first.periods,
            "failures": first.failures, "counts": first.counts,
            "setup_cpu_s_median": statistics.median(setup_times),
            "ctl_scaled_s": [round(t, 4) for t in ctl_scaled],
            "ctl_cpu_s": [round(sum(r.ctl_s), 4) for r in results],
            "ctl_wall_s": [round(sum(r.wall_s), 4) for r in results],
            "reference_s_median": statistics.median(probe.samples),
            "reference_samples": len(probe.samples)}
    return first, checks, metrics, info


def run_traced(args, wl):
    from tracing import Tracer
    setup, episode = wl.WORKLOADS[args.workload]

    def untraced():
        c0 = time.process_time()
        res = episode(setup(wl.NULL_TRACER))
        return res, time.process_time() - c0

    base, first_s = untraced()
    tracer = Tracer()
    tracer.install()
    try:
        c0 = time.process_time()
        traced = episode(setup(tracer), tracer)
        traced_s = time.process_time() - c0
    finally:
        tracer.uninstall()
    # untraced runs on both sides of the traced one, so that warm-up and
    # drift of the machine do not count as tracing overhead
    untraced_s = min(first_s, untraced()[1])
    checks = dict(traced.checks)
    checks["trace_does_not_change_results"] = base.same(traced)
    metrics = tracer.metrics(traced.counts)
    metrics["loop.fail_frac"] = (traced.failed / traced.periods, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s,
                                      "ratio")
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench",
                        f"trace-{args.workload}-{args.seed}.npz")
    tracer.write(path)
    info = {"trace_file": path, "untraced_s": untraced_s,
            "traced_s": traced_s, "failures": tracer.failure_types(),
            "periods_per_episode": traced.periods, "counts": traced.counts}
    return traced, checks, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")

    run = run_traced if args.trace else run_untraced
    remove_cap = wl.cap_prediction_steps()
    try:
        res, checks, metrics, info = run(args, wl)
    finally:
        remove_cap()
    correct = all(checks.values())

    print("stamp " + json.dumps(_stamp(args, wl), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True, default=str))
    for name, ok in checks.items():
        print(f"check {name:32s} {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:36s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res.periods,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
