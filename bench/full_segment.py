"""Work counters and times of the compiled prediction segments.

Two points, each one objective+gradient (``ocp.objective_and_gradient``)
of three constant moves at the nominal inputs over a 180 s / 360 s
horizon, integrated to rtol 1e-6, atol 1e-9, with x_F stepped to 0.357:

* the full-order point, ideal NMPC at the first solve point of the
  full-order work-counter pins in the tests: the default column from its
  nominal steady state;
* the hybrid point (``hybrid``), the packed-ANN hybrid of the hybrid
  work-counter pins in the tests (four fixed-seed random section nets)
  from the aggregated nominal steady state.

Each point runs on each backend:

* ``c``: the C core of this checkout (``_native.LIB``);
* ``c_baseline``: with ``--baseline-core``, the core built from another
  ``_core.c`` (another revision's) with the build line
  ``--baseline-flags`` (by default this checkout's, ``_native._FLAGS``),
  bound the same way and swapped in for ``_native.LIB``.  With
  ``--baseline-by-column`` its full-order segment takes the sensitivities
  one column at a time, as cores before the row-major layout did, and
  they are transposed around each call, as those cores' wrapper did;
* ``numpy``: the numpy integrator loop (``_native.LIB`` None).

The work counters (steps, rejected, Newton failures, rhs and Jacobian
evaluations, LUs) are deterministic.  At the full-order point they must
be equal on every backend, and every backend's objective and gradient
must agree with the numpy loop's to PARITY_RTOL (relative; the
gradient's against its largest entry).  At the hybrid point the
objective and gradient must be bitwise the numpy loop's on every
backend, and the counters of this checkout's core must be the numpy
loop's; the baseline core's counters are reported beside them
(``work_c_baseline``), since a core with other work, the same values,
is what the comparison is for.  Otherwise no record is printed.
The times are the minimum over ROUNDS rounds of one evaluation's wall
time (the numpy loop's over a third of them), the backends taking turns
within a round: at the full-order point divided by the steps
(microseconds per step), at the hybrid point per evaluation
(microseconds per objective+gradient), with one BLAS thread.  The record
is printed as JSON.  Run from the repository root:

    git show HEAD~1:src/colnmpc/_core.c > /tmp/core_baseline.c
    python3 bench/full_segment.py --baseline-core /tmp/core_baseline.c \\
        > BENCH_full_segment.json

The committed ``BENCH_full_segment.json`` was made this way: its
baseline is the core that ran the sensitivity stages of every step whose
Newton stages converged, before the error test; this core runs them only
for steps that pass it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import ctypes
import json
import platform
import shlex
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from colnmpc import _native
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, steady_state_solve)
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, objective_and_gradient)
from colnmpc.surrogate import ScalingSpec, SurrogateModel

NOMINAL_L = 2.0346651819
NOMINAL_V = 2.3546471803
NOMINAL_XF = 0.32
X_F = 0.357
SPEC = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
               n_intervals=3, sampling_time=60.0,
               integration_rtol=1e-6, integration_atol=1e-9)
ROUNDS = 90
PARITY_RTOL = 1e-10
WORK = ("steps", "rejected", "newton_failures", "nfev", "njev", "nlu")


def _baseline_core(source, flags=None):
    """The core built from the C file ``source`` with the build line
    ``flags`` (a sequence of gcc arguments; None: ``_native._FLAGS``),
    loaded and bound as ``_native`` does it, in a temporary directory."""
    here, own, own_flags = _native._HERE, _native._SOURCE, _native._FLAGS
    tmp = tempfile.mkdtemp()
    try:
        shutil.copyfile(source, os.path.join(tmp, "_core.c"))
        _native._HERE, _native._SOURCE = tmp, os.path.join(tmp, "_core.c")
        if flags is not None:
            _native._FLAGS = tuple(flags)
        lib = _native._load()
    finally:
        _native._HERE, _native._SOURCE = here, own
        _native._FLAGS = own_flags
        shutil.rmtree(tmp)  # the loaded library stays mapped
    if lib is None:
        sys.exit(f"error: the core of {source} could not be built")
    return lib


def _baseline_args(ap):
    """Add the baseline core's options to the argument parser ``ap``."""
    ap.add_argument("--baseline-core", help="another revision's _core.c")
    ap.add_argument("--baseline-flags", type=shlex.split,
                    help="the baseline core's build line, one string "
                         "(default: this checkout's)")


class _ByColumn:
    """A core whose full-order segment takes d y / d p one column at a
    time, (n_p, N) row-major, called as one that takes it (N, n_p)
    row-major: the sensitivities are transposed into a copy before the
    call and back after it."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def colnmpc_full_segment(self, *args):
        n, n_p, sens = args[0], args[11], args[12]
        if not n_p:
            return self._lib.colnmpc_full_segment(*args)
        rows = (ctypes.c_double * ((n + 1) * n_p)).from_address(sens)
        S = np.ctypeslib.as_array(rows).reshape(n + 1, n_p)
        T = S.T.copy()
        status = self._lib.colnmpc_full_segment(*args[:12], T.ctypes.data,
                                                *args[13:])
        S[...] = T.T
        return status


def _evaluate(lib, x0, model, moves):
    """(objective, gradient, work counters, wall seconds) of one
    objective+gradient on lib."""
    own = _native.LIB
    _native.LIB = lib
    try:
        work = dict.fromkeys(WORK, 0)
        start = time.perf_counter()
        phi, grad = objective_and_gradient(moves, x0, model, SPEC, work)
        return phi, grad, work, time.perf_counter() - start
    finally:
        _native.LIB = own


def _points():
    """(x0, model, moves) of the full-order and of the hybrid point."""
    params = ColumnParams()
    x0 = steady_state_solve(
        ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF),
        params)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, SPEC.n_intervals)
    layout = AggregationLayout.from_params(params)
    rng = np.random.default_rng(7)
    hybrid = HybridModel(params, layout, [
        SurrogateModel.new_random(k, rng, hidden=4,
                                  scaling=ScalingSpec(r_lo=0.3, r_hi=4.0))
        for k in range(4)])
    return ((x0, FullPrediction(params, X_F), moves),
            (layout.state_from_plant(x0), HybridPrediction(hybrid, X_F),
             moves))


def _best_times(backends, point):
    """(min wall seconds, rounds) per backend of evaluations at point."""
    best = dict.fromkeys(backends, np.inf)
    rounds = dict.fromkeys(backends, 0)
    for r in range(ROUNDS):
        for name, lib in backends.items():
            if name == "numpy" and r % 3:
                continue
            best[name] = min(best[name], _evaluate(lib, *point)[3])
            rounds[name] += 1
    return best, rounds


def measure(backends):
    """The record of ``backends`` (name -> core, None for the numpy loop,
    which is named "numpy") at both points, over ROUNDS rounds.  Exits
    with an error when a check of the module docstring fails."""
    full, hybrid = _points()
    out = {name: _evaluate(lib, *full)  # warm-up, and checks
           for name, lib in backends.items()}
    phi_r, grad_r, work_r, _ = out["numpy"]
    for name, (phi, grad, work, _) in out.items():
        if work != work_r:
            sys.exit(f"error: {name}'s work counters {work} differ from "
                     f"the numpy loop's {work_r}")
        if (abs(phi - phi_r) > PARITY_RTOL * abs(phi_r)
                or np.max(np.abs(grad - grad_r))
                > PARITY_RTOL * np.max(np.abs(grad_r))):
            sys.exit(f"error: {name}'s objective or gradient differs from "
                     f"the numpy loop's beyond {PARITY_RTOL:g}")
    hyb = {name: _evaluate(lib, *hybrid) for name, lib in backends.items()}
    hphi_r, hgrad_r, hwork_r, _ = hyb["numpy"]
    for name, (phi, grad, work, _) in hyb.items():
        if phi != hphi_r or grad.tobytes() != hgrad_r.tobytes():
            sys.exit(f"error: {name}'s hybrid objective or gradient is not "
                     "bitwise the numpy loop's")
        if name != "c_baseline" and work != hwork_r:
            sys.exit(f"error: {name}'s hybrid work counters {work} differ "
                     f"from the numpy loop's {hwork_r}")
    best, rounds = _best_times(backends, full)
    hbest, hrounds = _best_times(backends, hybrid)
    hybrid_record = {
        "point": {"model": "packed-ANN hybrid, 4 random sections "
                           "(hidden 4, seed 7), default layout",
                  "x0": "aggregated nominal steady state"},
        "work": hwork_r,
        "us_per_eval_min": {name: 1e6 * t for name, t in hbest.items()},
        "rounds": hrounds}
    if "c_baseline" in hyb:
        hybrid_record["work_c_baseline"] = hyb["c_baseline"][2]
    steps = work_r["steps"]
    return {
        "point": {"column": "ColumnParams()", "x0": "nominal steady state",
                  "L": NOMINAL_L, "V": NOMINAL_V, "x_F": X_F,
                  "horizon_control_s": SPEC.horizon_control,
                  "horizon_prediction_s": SPEC.horizon_prediction,
                  "n_intervals": SPEC.n_intervals,
                  "rtol": SPEC.integration_rtol,
                  "atol": SPEC.integration_atol},
        "work": work_r,
        "parity_rtol": PARITY_RTOL,
        "us_per_step_min": {name: 1e6 * t / steps
                            for name, t in best.items()},
        "rounds": rounds,
        "hybrid": hybrid_record,
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _baseline_args(ap)
    ap.add_argument("--baseline-by-column", action="store_true",
                    help="the baseline core takes the sensitivities one "
                         "column at a time")
    args = ap.parse_args()
    if _native.LIB is None:
        sys.exit("error: the C core of this checkout is not available")
    backends = {"c": _native.LIB}
    if args.baseline_core:
        lib = _baseline_core(args.baseline_core, args.baseline_flags)
        backends["c_baseline"] = _ByColumn(lib) if args.baseline_by_column \
            else lib
    backends["numpy"] = None
    print(json.dumps(measure(backends), indent=2))


if __name__ == "__main__":
    main()
